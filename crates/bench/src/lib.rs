//! # gshe-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper's evaluation. Each artifact has a dedicated binary (see
//! `src/bin/`), and Criterion benches in `benches/` measure the hot paths
//! and the ablation comparisons DESIGN.md calls out.
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

/// The flags [`HarnessArgs::parse`] reads.
const HARNESS_USAGE: &str =
    "--scale N --timeout SECS --samples N --seed N --only NAME --threads N --levels 0.1,0.2";

impl HarnessArgs {
    /// Parses `--scale N --timeout SECS --samples N --seed N --only NAME
    /// --threads N --levels FRACTIONS` from `std::env::args`, falling back
    /// to the defaults. Levels are fractions of gates camouflaged, as in
    /// campaign specs: `--levels 0.1,0.2`. Fails (see [`fail`]) on a
    /// missing or malformed value, on `--samples 0` and on an unknown
    /// flag.
    pub fn parse() -> Self {
        let mut args = HarnessArgs::default();
        let mut argv = std::env::args().skip(1);
        while let Some(key) = argv.next() {
            let value = argv.next().unwrap_or_else(|| {
                fail(&format!("missing value for {key}; usage: {HARNESS_USAGE}"))
            });
            match key.as_str() {
                "--scale" => args.scale = parse_value(&key, &value, "an integer"),
                "--timeout" => {
                    args.timeout = Duration::from_secs(parse_value(&key, &value, "seconds"))
                }
                "--samples" => {
                    args.samples =
                        parse_value::<NonZeroUsize>(&key, &value, "a positive integer").get()
                }
                "--seed" => args.seed = parse_value(&key, &value, "an integer"),
                "--only" => args.only = value,
                "--threads" => args.threads = parse_value(&key, &value, "an integer"),
                "--levels" => {
                    args.levels = value
                        .split(',')
                        .map(|v| parse_value(&key, v, "fractions (e.g. 0.1,0.2)"))
                        .collect()
                }
                other => fail(&format!("unknown option `{other}`; usage: {HARNESS_USAGE}")),
            }
        }
        args
    }
}

/// Parses the `value` of `flag`, failing with a message that names the
/// flag, what it takes and the value.
fn parse_value<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| fail(&format!("{flag} takes {what}, got `{value}`")))
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

    #[test]
    fn bar_line_scales() {
        let l = bar_line("x", 5.0, 10.0, 10);
        assert!(l.contains("█████"));
        let empty = bar_line("x", 0.0, 10.0, 10);
        assert!(!empty.contains('█'));
    }

    #[test]
    fn runtime_cells() {
        assert_eq!(runtime_cell("success", 12.34), "12.3");
        assert_eq!(runtime_cell("timeout", 0.0), "t-o");
        assert_eq!(runtime_cell("exhausted", 0.0), "fail");
    }
}
