//! `agt` — command-line front end for the asyncgt library.
//!
//! ```text
//! agt generate rmat --scale 16 --variant a -o graph.agt
//! agt generate web  --pages 100000 --like sk2005 -o web.agt
//! agt convert edges.txt graph.agt
//! agt info graph.agt
//! agt bfs  graph.agt --source 0 --threads 64 [--device fusionio]
//! agt sssp graph.agt --source 0 --threads 64
//! agt cc   graph.agt --threads 64
//! ```
//!
//! Output format is chosen by extension: `.agt` writes the semi-external
//! CSR format, `.txt` a text edge list, anything else the binary edge
//! list. Traversal inputs must be `.agt` files (they are opened
//! semi-externally; add `--device` to charge a simulated flash model).

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        // Malformed invocation: diagnostic plus the usage text, exit 2.
        Err(commands::CliError::Usage(e)) => {
            eprintln!("agt: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::from(2)
        }
        // Operational failure (I/O, storage fault, failed validation):
        // a single-line diagnostic, no usage spam.
        Err(commands::CliError::Runtime(e)) => {
            eprintln!("agt: {e}");
            ExitCode::FAILURE
        }
    }
}
