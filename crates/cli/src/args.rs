//! Minimal `--flag value` argument parsing (no external dependencies).

/// Parsed flag map plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Flags that take a value.
const VALUED: &[&str] = &[
    "--scale",
    "--edge-factor",
    "--variant",
    "--seed",
    "--weights",
    "--pages",
    "--like",
    "--source",
    "--sources",
    "--threads",
    "--device",
    "--block-kb",
    "--cache-blocks",
    "--metrics-json",
    "--fault-seed",
    "--fault-rate",
    "--retry-attempts",
    "--retry-backoff-us",
    "--retry-deadline-ms",
    "--io-batch",
    "--readahead",
    "--prefetch-threads",
    "--algo",
    "--count",
    "--max-concurrent",
    "--queue-depth",
    "-o",
];

/// Boolean switches, named without their `--`. Any other `--flag` is a
/// usage error, so a typo cannot silently run with defaults.
const SWITCHES: &[&str] = &[
    "metrics",
    "validate",
    "undirected",
    "fault-permanent",
    "no-verify-checksums",
];

impl Args {
    /// Parse raw argv (after the subcommand).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut out = Args::default();
        let mut it = argv.iter().peekable();
        while let Some(a) = it.next() {
            if VALUED.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("flag {a} requires a value"))?;
                out.flags.push((a.clone(), v.clone()));
            } else if let Some(name) = a.strip_prefix("--") {
                if !SWITCHES.contains(&name) {
                    return Err(format!("unknown flag {a:?}"));
                }
                out.switches.push(name.to_string());
            } else {
                out.positional.push(a.clone());
            }
        }
        Ok(out)
    }

    /// Positional argument `i`.
    pub fn pos(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn pos_len(&self) -> usize {
        self.positional.len()
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

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_positionals_switches() {
        let a = Args::parse(&argv("in.agt --threads 8 --validate -o out.agt")).unwrap();
        assert_eq!(a.pos(0), Some("in.agt"));
        assert_eq!(a.get("--threads"), Some("8"));
        assert_eq!(a.get("-o"), Some("out.agt"));
        assert!(a.has("validate"));
        assert_eq!(a.pos_len(), 1);
    }

    #[test]
    fn missing_value_is_error() {
        assert!(Args::parse(&argv("--threads")).is_err());
    }

    #[test]
    fn get_parsed_defaults_and_errors() {
        let a = Args::parse(&argv("--threads 12")).unwrap();
        assert_eq!(a.get_parsed("--threads", 1usize).unwrap(), 12);
        assert_eq!(a.get_parsed("--scale", 14u32).unwrap(), 14);
        let bad = Args::parse(&argv("--threads twelve")).unwrap();
        assert!(bad.get_parsed::<usize>("--threads", 1).is_err());
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_flag() {
        for (line, flag) in [
            ("in.agt --valdiate", "--valdiate"),
            ("in.agt --thread 8", "--thread"),
            ("in.agt --mailbox lock", "--mailbox"),
        ] {
            let err = Args::parse(&argv(line)).unwrap_err();
            assert!(err.contains(flag), "{line}: {err}");
        }
    }

    #[test]
    fn last_flag_wins() {
        let a = Args::parse(&argv("--threads 1 --threads 9")).unwrap();
        assert_eq!(a.get("--threads"), Some("9"));
    }
}
