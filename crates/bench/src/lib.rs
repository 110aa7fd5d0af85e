//! # gshe-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation. Each artifact has a dedicated binary (see
//! `src/bin/`). Speed is measured elsewhere, by the `perfbench` harness,
//! which writes the repository's `BENCH_*.json` files.
//!
//! | Artifact | Binary |
//! |----------|--------|
//! | Table I   | `table1` |
//! | Table II  | `table2` |
//! | Table III | `table3` |
//! | Table IV  | `table4` |
//! | Fig. 2    | `fig2` |
//! | Fig. 4    | `fig4` |
//! | Fig. 5    | `fig5` |
//! | Fig. 6    | `fig6` |
//! | Sec. II s38584 study        | `exp_s38584` |
//! | Sec. V-A Double DIP study   | `exp_double_dip` |
//! | Sec. V-A hybrid CMOS–GSHE   | `exp_hybrid` |
//! | Sec. V-B stochastic defense | `exp_stochastic` |
//!
//! Shared argument parsing and table rendering live here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gshe_core::campaign::{flag_key, SpecValue};
use std::num::NonZeroUsize;
use std::time::Duration;

/// Prints `error: <msg>` and exits with status 2 (command-line misuse or a
/// bad spec).
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The command line of a spec binary (`campaign`, `profile-search`): the
/// run and output flags `--spec FILE.toml`, `--out PREFIX`, `--trace-out
/// FILE`, `--metrics-out FILE` and `--deterministic`, and the
/// `--key-name value` flags that set spec keys.
#[derive(Debug, Default)]
pub struct SpecArgs {
    spec: Option<String>,
    out: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// `--deterministic`: print the timing-free JSON instead of a table.
    pub deterministic: bool,
    /// Every other `(flag, value)` pair, in command-line order.
    flags: Vec<(String, String)>,
}

impl SpecArgs {
    /// Reads `std::env::args`. Prints `print_help`'s usage and exits on
    /// `--help`; fails on a flag without a value.
    pub fn parse(print_help: fn()) -> SpecArgs {
        let mut args = SpecArgs::default();
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            match flag.as_str() {
                "--help" | "-h" => {
                    print_help();
                    std::process::exit(0);
                }
                "--deterministic" => {
                    args.deterministic = true;
                    continue;
                }
                _ => {}
            }
            let value = argv.next().unwrap_or_else(|| {
                fail(&format!("missing value for {flag}; see --help for usage"))
            });
            match flag.as_str() {
                "--spec" => args.spec = Some(value),
                "--out" => args.out = Some(value),
                "--trace-out" => args.trace_out = Some(value),
                "--metrics-out" => args.metrics_out = Some(value),
                _ => args.flags.push((flag, value)),
            }
        }
        args
    }

    /// Builds the spec: the `--spec` file through `parse_toml` (or the
    /// default spec), then every other flag `--key-name value`, wherever
    /// it appears, through `set` as key `key_name`. Fails on an unreadable
    /// or bad spec file, a flag that is not a key and a bad value.
    pub fn spec<S: Default>(
        &self,
        bin: &str,
        parse_toml: fn(&str) -> Result<S, String>,
        mut set: impl FnMut(&mut S, &str, SpecValue) -> Result<(), String>,
    ) -> S {
        let mut spec = match &self.spec {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| fail(&format!("cannot read spec `{path}`: {e}")));
                parse_toml(&text).unwrap_or_else(|e| fail(&format!("bad spec `{path}`: {e}")))
            }
            None => S::default(),
        };
        for (flag, value) in &self.flags {
            let key = flag_key(flag).unwrap_or_else(|| {
                fail(&format!(
                    "unknown option `{flag}` (run `{bin} --help` for the flag list)"
                ))
            });
            set(&mut spec, &key, SpecValue::Flag(value))
                .unwrap_or_else(|e| fail(&format!("{flag}: {e}")));
        }
        spec
    }

    /// Turns instrumentation on, before any work runs, when a trace or a
    /// metrics file is asked for. Tracing implies metrics (spans feed
    /// both); metrics alone skips the per-event trace buffers.
    pub fn enable_instrumentation(&self) {
        if self.trace_out.is_some() {
            gshe_core::obs::enable_tracing();
        } else if self.metrics_out.is_some() {
            gshe_core::obs::enable();
        }
    }

    /// Writes the report, rendered by `report` as JSON and CSV, to
    /// `PREFIX.json` and `PREFIX.csv` under the `--out` prefix, and the
    /// trace and metrics files, for each one asked for.
    pub fn write_outputs(&self, report: impl FnOnce() -> (String, String)) {
        let write = |path: &str, text: &str| {
            std::fs::write(path, text)
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")))
        };
        if let Some(prefix) = &self.out {
            let (json, csv) = report();
            write(&format!("{prefix}.json"), &json);
            write(&format!("{prefix}.csv"), &csv);
            eprintln!("wrote {prefix}.json and {prefix}.csv");
        }
        if let Some(path) = &self.trace_out {
            write(path, &gshe_core::obs::trace_json());
            eprintln!("wrote Chrome trace to {path}");
        }
        if let Some(path) = &self.metrics_out {
            write(path, &gshe_core::obs::metrics_json());
            eprintln!("wrote metrics snapshot to {path}");
        }
    }
}

/// Common command-line options for the harness binaries.
///
/// Parsed by hand (`--key value` pairs) to avoid pulling an argument-parsing
/// dependency into the reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessArgs {
    /// Benchmark-scale divisor (1 = paper-scale gate counts).
    pub scale: usize,
    /// Per-attack wall-clock budget.
    pub timeout: Duration,
    /// Monte Carlo sample count (at least 1).
    pub samples: usize,
    /// Master seed.
    pub seed: u64,
    /// Restrict to one benchmark (empty = all).
    pub only: String,
    /// Protection levels as fractions (Table IV rows).
    pub levels: Vec<f64>,
    /// Campaign worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            scale: 20,
            timeout: Duration::from_secs(60),
            samples: 2_000,
            seed: 1,
            only: String::new(),
            levels: vec![0.10, 0.20, 0.30, 0.40],
            threads: 0,
        }
    }
}

/// Every flag a paper harness can read, with its value's shape for the
/// usage line.
const HARNESS_FLAGS: [(&str, &str); 7] = [
    ("--scale", "N"),
    ("--timeout", "SECS"),
    ("--samples", "N"),
    ("--seed", "N"),
    ("--only", "NAME"),
    ("--threads", "N"),
    ("--levels", "0.1,0.2"),
];

impl HarnessArgs {
    /// Parses `std::env::args` with [`HarnessArgs::parse_from`], reading
    /// only the flags in `reads`; on an error prints it (see [`fail`]) and
    /// exits with status 2.
    pub fn parse(reads: &[&str]) -> Self {
        HarnessArgs::parse_from(std::env::args().skip(1), reads).unwrap_or_else(|e| fail(&e))
    }

    /// Parses `--flag value` pairs from `args`, falling back to the
    /// defaults. `reads` lists the flags the harness reads, out of
    /// `--scale N --timeout SECS --samples N --seed N --only NAME
    /// --threads N --levels FRACTIONS`. Levels are fractions of gates
    /// camouflaged, as in campaign specs: `--levels 0.1,0.2`.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for a flag outside `reads` (unknown, or
    /// one the harness does not read) and a flag without a value, each
    /// ending in the harness's usage, and for a malformed value and
    /// `--samples 0`.
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        reads: &[&str],
    ) -> Result<Self, String> {
        let usage = usage(reads);
        let mut parsed = HarnessArgs::default();
        let mut argv = args.into_iter();
        while let Some(key) = argv.next() {
            if !reads.contains(&key.as_str()) {
                return Err(format!("this harness does not read {key}; usage: {usage}"));
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("missing value for {key}; usage: {usage}"))?;
            match key.as_str() {
                "--scale" => parsed.scale = parse_value(&key, &value, "an integer")?,
                "--timeout" => {
                    parsed.timeout = Duration::from_secs(parse_value(&key, &value, "seconds")?)
                }
                "--samples" => {
                    parsed.samples =
                        parse_value::<NonZeroUsize>(&key, &value, "a positive integer")?.get()
                }
                "--seed" => parsed.seed = parse_value(&key, &value, "an integer")?,
                "--only" => parsed.only = value,
                "--threads" => parsed.threads = parse_value(&key, &value, "an integer")?,
                "--levels" => {
                    parsed.levels = value
                        .split(',')
                        .map(|v| parse_value(&key, v, "fractions (e.g. 0.1,0.2)"))
                        .collect::<Result<_, _>>()?
                }
                other => unreachable!("`{other}` is in `reads` but not a harness flag"),
            }
        }
        Ok(parsed)
    }
}

/// The usage line of a harness that reads `reads`.
fn usage(reads: &[&str]) -> String {
    let flags: Vec<String> = HARNESS_FLAGS
        .iter()
        .filter(|(f, _)| reads.contains(f))
        .map(|(f, v)| format!("{f} {v}"))
        .collect();
    if flags.is_empty() {
        "this harness takes no flags".into()
    } else {
        flags.join(" ")
    }
}

/// Parses the `value` of `flag`, with a message that names the flag, what
/// it takes and the value on failure.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes {what}, got `{value}`"))
}

/// Renders a histogram line: a label, a unicode bar, and the value.
pub fn bar_line(label: &str, value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    format!(
        "{label:>10} | {:<width$} {value:.4}",
        "█".repeat(filled.min(width))
    )
}

/// Renders a protection level as the fraction that the `--levels` flags,
/// the CSV and the JSON use (`0.15`, `0.0005`), so that sub-percent levels
/// stay distinct in a human table.
pub fn level_label(level: f64) -> String {
    format!("{level}")
}

/// Formats a runtime cell for Table IV: seconds, or `t-o` on timeout, or
/// `fail` on resource exhaustion.
pub fn runtime_cell(status: &str, secs: f64) -> String {
    match status {
        "success" => format!("{secs:.1}"),
        "timeout" => "t-o".to_string(),
        "inconsistent" => "incons".to_string(),
        _ => "fail".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let a = HarnessArgs::default();
        assert_eq!(a.scale, 20);
        assert_eq!(a.timeout, Duration::from_secs(60));
    }

    fn parse(args: &[&str], reads: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|a| a.to_string()), reads)
    }

    #[test]
    fn harness_reads_only_its_own_flags() {
        let reads = ["--samples", "--seed"];
        let a = parse(&["--samples", "64", "--seed", "9"], &reads).unwrap();
        assert_eq!((a.samples, a.seed), (64, 9));
        assert_eq!(a.timeout, HarnessArgs::default().timeout);
        assert_eq!(parse(&[], &reads).unwrap(), HarnessArgs::default());

        let usage = "usage: --samples N --seed N";
        let unread = parse(&["--samples", "8", "--timeout", "10"], &reads).unwrap_err();
        assert_eq!(
            unread,
            format!("this harness does not read --timeout; {usage}")
        );
        let unknown = parse(&["--bogus", "1"], &reads).unwrap_err();
        assert_eq!(
            unknown,
            format!("this harness does not read --bogus; {usage}")
        );
        let missing = parse(&["--seed"], &reads).unwrap_err();
        assert_eq!(missing, format!("missing value for --seed; {usage}"));
        let malformed = parse(&["--samples", "many"], &reads).unwrap_err();
        assert_eq!(malformed, "--samples takes a positive integer, got `many`");
        let zero = parse(&["--samples", "0"], &reads).unwrap_err();
        assert_eq!(zero, "--samples takes a positive integer, got `0`");
    }

    #[test]
    fn a_harness_without_flags_rejects_every_flag() {
        let err = parse(&["--seed", "1"], &[]).unwrap_err();
        assert_eq!(
            err,
            "this harness does not read --seed; usage: this harness takes no flags"
        );
        assert_eq!(parse(&[], &[]).unwrap(), HarnessArgs::default());
    }

    #[test]
    fn levels_parse_as_fractions() {
        let reads = ["--levels", "--scale"];
        let a = parse(&["--levels", "0.1,0.25", "--scale", "100"], &reads).unwrap();
        assert_eq!((a.levels, a.scale), (vec![0.1, 0.25], 100));
        let bad = parse(&["--levels", "0.1,x"], &reads).unwrap_err();
        assert_eq!(bad, "--levels takes fractions (e.g. 0.1,0.2), got `x`");
    }

    #[test]
    fn bar_line_scales() {
        let l = bar_line("x", 5.0, 10.0, 10);
        assert!(l.contains("█████"));
        let empty = bar_line("x", 0.0, 10.0, 10);
        assert!(!empty.contains('█'));
    }

    #[test]
    fn levels_render_as_distinct_fractions() {
        let labels = [0.0005, 0.0006, 0.15].map(level_label);
        assert_eq!(labels, ["0.0005", "0.0006", "0.15"]);
    }

    #[test]
    fn runtime_cells() {
        assert_eq!(runtime_cell("success", 12.34), "12.3");
        assert_eq!(runtime_cell("timeout", 0.0), "t-o");
        assert_eq!(runtime_cell("exhausted", 0.0), "fail");
    }
}
