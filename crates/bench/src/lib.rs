//! The flag tables of `repro`'s two commands, shared by the binary and
//! its tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One `repro` command's flags, each with the placeholder of its value
/// (`None` for a switch). The argument check and the usage text both
/// read the table, so the usage cannot drift from what is accepted.
pub type FlagTable = &'static [(&'static str, Option<&'static str>)];

/// Every flag of the main command.
pub const FLAGS: FlagTable = &[
    ("--help", None),
    ("-h", None),
    ("--scale", Some("tiny|small|medium|large|huge")),
    ("--table", Some("1..7")),
    ("--fig", Some("1..8")),
    ("--case", Some("unique-nodes|cookies|tracking")),
    ("--json", Some("FILE")),
    ("--csv", Some("DIR")),
    ("--telemetry", Some("DIR")),
    ("--no-telemetry", None),
    ("--ablations", None),
    ("--bundle", Some("DIR")),
    ("--resume", None),
    ("--max-sites", Some("N")),
    ("--from-bundle", Some("DIR")),
    ("--shards", Some("N")),
    ("--shard-dir", Some("DIR")),
    ("--plan-only", None),
    ("--shard-id", Some("K")),
    ("--merge-shards", Some("DIR")),
    ("--workers", Some("N")),
    ("--list-bundles", Some("DIR")),
];

/// Every flag of `repro serve`.
pub const SERVE_FLAGS: FlagTable = &[
    ("--help", None),
    ("-h", None),
    ("--root", Some("DIR")),
    ("--addr", Some("HOST:PORT")),
    ("--http-workers", Some("N")),
    ("--job-workers", Some("N")),
    ("--cache", Some("N")),
    ("--batch-sites", Some("N")),
];

/// The usage line of `command`, rendered from its flag `table`.
pub fn usage(command: &str, table: FlagTable) -> String {
    let mut line = format!("USAGE: {command}");
    for (flag, value) in table {
        match value {
            Some(value) => line.push_str(&format!(" [{flag} {value}]")),
            None => line.push_str(&format!(" [{flag}]")),
        }
    }
    line
}
