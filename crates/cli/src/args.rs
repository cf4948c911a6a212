//! Minimal `--flag value` argument parsing (no external dependencies).

/// Parsed flag map plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

/// What one subcommand accepts. Anything else is a usage error.
pub struct Spec {
    /// Names of its positional arguments, in order; it takes exactly
    /// this many.
    pub positionals: &'static [&'static str],
    /// Groups of flags it accepts (valued flags and switches alike).
    pub flags: &'static [&'static [&'static str]],
}

/// Flags that take no value. Every other flag takes one.
const SWITCHES: &[&str] = &[
    "--metrics",
    "--validate",
    "--undirected",
    "--fault-permanent",
    "--no-verify-checksums",
];

impl Args {
    /// Parse raw argv (after subcommand `cmd`) against `spec`: a flag
    /// the subcommand does not take, a missing value, or a wrong number
    /// of positional arguments is an error, so a typo cannot silently run
    /// with defaults.
    pub fn parse(cmd: &str, argv: &[String], spec: &Spec) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") || a == "-o" {
                if !spec.flags.iter().any(|group| group.contains(&a.as_str())) {
                    return Err(format!("{cmd}: unknown flag {a:?}"));
                }
                if SWITCHES.contains(&a.as_str()) {
                    out.switches.push(a[2..].to_string());
                } else {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("{cmd}: flag {a} requires a value"))?;
                    out.flags.push((a.clone(), v.clone()));
                }
            } else if out.positional.len() < spec.positionals.len() {
                out.positional.push(a.clone());
            } else {
                return Err(format!("{cmd}: unexpected argument {a:?}"));
            }
        }
        if let Some(missing) = spec.positionals.get(out.positional.len()) {
            return Err(format!("{cmd}: missing {missing}"));
        }
        Ok(out)
    }

    /// Positional argument `i` (present for every `i` below the spec's
    /// count, which `parse` enforces).
    pub fn pos(&self, i: usize) -> &str {
        &self.positional[i]
    }

    /// Raw string value of a flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed value of a flag, with default.
    pub fn get_parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        }
    }

    /// Whether a boolean switch (e.g. `--undirected`) was given.
    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAVERSE: Spec = Spec {
        positionals: &["FILE.agt"],
        flags: &[&["--threads", "--validate", "-o"], &["--scale"]],
    };

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse("bfs", &argv(s), &TRAVERSE)
    }

    #[test]
    fn parses_flags_positionals_switches() {
        let a = parse("in.agt --threads 8 --validate -o out.agt").unwrap();
        assert_eq!(a.pos(0), "in.agt");
        assert_eq!(a.get("--threads"), Some("8"));
        assert_eq!(a.get("-o"), Some("out.agt"));
        assert!(a.has("validate"));
    }

    #[test]
    fn missing_value_is_error() {
        assert!(parse("in.agt --threads").is_err());
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let a = parse("in.agt --threads 12").unwrap();
        assert_eq!(a.get_parsed("--threads", 1usize).unwrap(), 12);
        assert_eq!(a.get_parsed("--scale", 14u32).unwrap(), 14);
        let bad = parse("in.agt --threads twelve").unwrap();
        assert!(bad.get_parsed::<usize>("--threads", 1).is_err());
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        for (line, flag) in [
            ("in.agt --valdiate", "--valdiate"),
            ("in.agt --thread 8", "--thread"),
            ("in.agt --mailbox lock", "--mailbox"),
            // Known to other subcommands, not to this one.
            ("in.agt --undirected", "--undirected"),
            ("in.agt --source 3", "--source"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
            assert!(err.starts_with("bfs: "), "{line}: {err}");
        }
    }

    #[test]
    fn positional_count_is_exact() {
        let err = parse("in.agt extra-arg").unwrap_err();
        assert!(err.contains("unexpected argument \"extra-arg\""), "{err}");
        let err = parse("--threads 2").unwrap_err();
        assert!(err.contains("missing FILE.agt"), "{err}");
        // A flag's value is never taken for a positional.
        assert_eq!(parse("--threads 2 in.agt").unwrap().pos(0), "in.agt");
    }

    #[test]
    fn last_flag_wins() {
        let a = parse("in.agt --threads 1 --threads 9").unwrap();
        assert_eq!(a.get("--threads"), Some("9"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Arbitrary argv — every flag some subcommand takes, flags none
        /// takes, values and stray positionals — parsed against every
        /// subcommand's spec: `parse` never panics, every error names its
        /// subcommand, and a success fills every positional slot.
        #[test]
        fn parse_is_total_over_arbitrary_argv(
            picks in proptest::collection::vec(0usize..10_000, 0..10),
        ) {
            let cmds = [
                "generate", "convert", "info", "bfs", "sssp", "cc", "queries", "help",
            ];
            let specs = cmds.map(|c| crate::commands::spec(c).unwrap());
            let mut words: Vec<&str> = specs.iter().flat_map(|s| s.flags.concat()).collect();
            words.extend(["--valdiate", "--threads=4", "--", "-", "-x", "8", "0,17", "g.agt", ""]);
            let argv: Vec<String> =
                picks.iter().map(|&i| words[i % words.len()].into()).collect();
            for (cmd, spec) in cmds.iter().zip(&specs) {
                let parsed = std::panic::catch_unwind(|| Args::parse(cmd, &argv, spec));
                proptest::prop_assert!(parsed.is_ok(), "{cmd} {argv:?}: parse panicked");
                match parsed.unwrap() {
                    Ok(a) => {
                        proptest::prop_assert_eq!(a.positional.len(), spec.positionals.len())
                    }
                    Err(e) => proptest::prop_assert!(e.starts_with(&format!("{cmd}: ")), "{e}"),
                }
            }
        }
    }
}
