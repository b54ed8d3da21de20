//! # feral-cli
//!
//! The command-line plumbing shared by the tool binaries (`feral-sim`,
//! `feral-lint`, `feral-sdg`, `feral-plan`, `feral-net` and
//! `feral-paper`): a minimal `--flag value` parser that refuses flags a
//! tool does not read, the common exit-code conventions, isolation-level
//! parsing, and `--out` output routing. Each binary keeps its own
//! subcommands and semantics; only the previously copy-pasted surface
//! lives here.
//!
//! Exit-code convention: `0` success, [`EXIT_DEVIATION`] (`1`) for "ran
//! fine but the result deviates" (an anomaly found, a validation
//! failure, a gate missed), [`EXIT_USAGE`] (`2`) for usage errors.

#![warn(missing_docs)]

pub mod report;

use feral_db::IsolationLevel;
use std::collections::HashMap;

/// Exit code for "the tool ran, but the result deviates" (anomaly
/// found, validation failed, gate missed).
pub const EXIT_DEVIATION: u8 = 1;

/// Exit code for usage errors (unknown flag value, missing argument).
pub const EXIT_USAGE: u8 = 2;

/// Print `tool: msg` to stderr and exit with [`EXIT_USAGE`].
pub fn die(tool: &str, msg: &str) -> ! {
    eprintln!("{tool}: {msg}");
    std::process::exit(EXIT_USAGE as i32)
}

/// Parse an isolation-level name (`read-committed`, `repeatable-read`,
/// `snapshot`, `serializable`), dying with a usage error otherwise.
pub fn parse_isolation(tool: &str, s: &str) -> IsolationLevel {
    IsolationLevel::parse(s).unwrap_or_else(|| die(tool, &format!("unknown isolation `{s}`")))
}

/// The flag spelling of an isolation level (`read-committed`) — what
/// [`parse_isolation`] reads back, and the one place it is spelled.
pub fn isolation_flag(level: IsolationLevel) -> String {
    level.name().replace(' ', "-")
}

/// Parse a comma-separated pair of isolation-level names
/// (`snapshot,serializable`) — the `--levels` spelling for
/// mixed-isolation runs, one level per template slot. Dies with a usage
/// error unless exactly two valid names are given.
pub fn parse_levels(tool: &str, s: &str) -> [IsolationLevel; 2] {
    let parts: Vec<&str> = s.split(',').map(str::trim).collect();
    if parts.len() != 2 {
        die(
            tool,
            &format!("--levels wants exactly two comma-separated levels, got `{s}`"),
        );
    }
    [
        parse_isolation(tool, parts[0]),
        parse_isolation(tool, parts[1]),
    ]
}

/// Route rendered output: write to `path` when given (reporting the
/// destination on stderr), print to stdout otherwise.
pub fn write_out(tool: &str, path: Option<&str>, rendered: &str) {
    match path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                die(tool, &format!("cannot write {path}: {e}"));
            }
            eprintln!("{tool}: wrote {path}");
        }
        None => print!("{rendered}"),
    }
}

/// The standard flags: a tool that reads one means this by it.
const STANDARD: [(&str, &str); 4] = [
    ("json", "  --json            emit machine-readable JSON\n"),
    (
        "out",
        "  --out PATH        write the artifact to PATH instead of stdout\n",
    ),
    (
        "validate",
        "  --validate        self-validate the artifact and exit nonzero on schema drift\n",
    ),
    ("smoke", "  --smoke           small fast run for CI gates\n"),
];

/// Render a tool's `--help` text in the house format: a one-line
/// summary, a usage block, tool-specific options, then a standard-flags
/// block with the standard flags among `flags` — the list the tool's
/// parser reads ([`Args::parse`]) — that `options` does not describe
/// itself, and `--help`.
pub fn render_help(tool: &str, about: &str, usage: &str, options: &str, flags: &[&str]) -> String {
    let mut out = format!("{tool} — {about}\n\nUsage:\n{usage}");
    if !options.is_empty() {
        out.push_str("\nOptions:\n");
        out.push_str(options);
    }
    out.push_str("\nStandard flags:\n");
    for (name, line) in STANDARD {
        if flags.contains(&name) && !options.contains(&format!("  --{name} ")) {
            out.push_str(line);
        }
    }
    out.push_str("  --help            this text\n");
    out
}

/// The first `--flag` in `args` whose name is not in `known`.
pub fn unknown_flag<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    args.iter().map(String::as_str).find(|a| {
        a.strip_prefix("--")
            .is_some_and(|name| !known.contains(&name))
    })
}

/// Minimal `--flag value` argument parser shared by every tool binary.
#[derive(Debug, Clone, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse the arguments of `tool`, which reads only the flags named in
    /// `known` (without their leading `--`). Any other `--flag` dies with
    /// [`EXIT_USAGE`], naming it: a misspelled or retired flag is refused,
    /// never silently ignored.
    pub fn parse(tool: &str, args: impl IntoIterator<Item = String>, known: &[&str]) -> Args {
        let items: Vec<String> = args.into_iter().collect();
        if let Some(flag) = unknown_flag(&items, known) {
            die(
                tool,
                &format!("unknown flag `{flag}` (--help lists the flags)"),
            );
        }
        Self::from_iter(items)
    }

    /// Parse from an iterator, keeping every flag. `--key value`
    /// populates a flag, a bare `--key` a switch.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(args: impl IntoIterator<Item = String>) -> Args {
        let mut out = Args::default();
        let items: Vec<String> = args.into_iter().collect();
        let mut i = 0;
        while i < items.len() {
            let a = &items[i];
            if let Some(key) = a.strip_prefix("--") {
                match items.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        out.flags.insert(key.to_string(), v.clone());
                        i += 2;
                    }
                    _ => {
                        out.switches.push(key.to_string());
                        i += 1;
                    }
                }
            } else {
                i += 1;
            }
        }
        out
    }

    /// A numeric flag with a default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A u64 flag with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.flags
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// A string flag.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Whether a bare switch was passed.
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_text_carries_the_standard_block() {
        let text = render_help(
            "feral-x",
            "does x",
            "  feral-x run [--n N]\n",
            "  --n N    how many\n  --validate GOLDEN  diff against GOLDEN\n",
            &["n", "json", "validate"],
        );
        assert!(text.starts_with("feral-x — does x"));
        assert!(text.contains("Usage:\n  feral-x run"));
        assert!(text.contains("Options:\n  --n N"));
        // the standard flags the parser reads, unless an option line
        // already describes them
        assert!(text.ends_with(
            "\nStandard flags:\n  --json            emit machine-readable JSON\n  --help            this text\n"
        ));
        // no options block when there are no tool-specific options, and
        // only `--help` when the tool reads no standard flag
        let bare = render_help("feral-y", "does y", "  feral-y\n", "", &[]);
        assert!(!bare.contains("Options:"));
        assert!(bare.ends_with("\n\nStandard flags:\n  --help            this text\n"));
    }

    #[test]
    fn args_parse_flags_and_switches() {
        let a = Args::from_iter(
            ["--workers", "8", "--full", "--dist", "ycsb"]
                .into_iter()
                .map(String::from),
        );
        assert_eq!(a.get_usize("workers", 1), 8);
        assert!(a.has("full"));
        assert_eq!(a.get_str("dist"), Some("ycsb"));
        assert_eq!(a.get_usize("missing", 7), 7);
    }

    #[test]
    fn switch_followed_by_flag_stays_a_switch() {
        let a = Args::from_iter(
            ["--validate", "--seeds", "100", "--json"]
                .into_iter()
                .map(String::from),
        );
        assert!(a.has("validate"));
        assert!(a.has("json"));
        assert_eq!(a.get_u64("seeds", 0), 100);
    }

    #[test]
    fn a_flag_the_tool_does_not_read_is_named() {
        let argv = |words: &[&str]| words.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let known = ["max-runs", "json"];
        assert_eq!(
            unknown_flag(&argv(&["--max-runs", "5", "--json"]), &known),
            None
        );
        assert_eq!(
            unknown_flag(&argv(&["--json", "--seeds", "5", "--bogus"]), &known),
            Some("--seeds")
        );
        // positionals and flag values are not flags
        assert_eq!(unknown_flag(&argv(&["matrix", "-5"]), &known), None);
    }

    #[test]
    fn levels_parse_as_a_pair() {
        let pair = parse_levels("test", "snapshot, serializable");
        assert_eq!(
            pair,
            [IsolationLevel::Snapshot, IsolationLevel::Serializable]
        );
    }

    #[test]
    fn isolation_names_parse() {
        let cases = [
            ("read-committed", IsolationLevel::ReadCommitted),
            ("repeatable-read", IsolationLevel::RepeatableRead),
            ("snapshot", IsolationLevel::Snapshot),
            ("serializable", IsolationLevel::Serializable),
        ];
        for (name, iso) in cases {
            assert_eq!(parse_isolation("test", name), iso);
        }
    }
}
