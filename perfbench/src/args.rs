//! Command-line arguments: `--workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.

use std::fmt;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Sequential noisy SobelX image kernel on a 64x64 sensor.
    KernelNoisy,
    /// Batched, worker-tiled 256-128-10 MLP classification.
    ClassifyLinear,
    /// Mixed traffic through the sharded server.
    ServeMixed,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 3] = [
        WorkloadName::KernelNoisy,
        WorkloadName::ClassifyLinear,
        WorkloadName::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::KernelNoisy => "kernel_noisy",
            WorkloadName::ClassifyLinear => "classify_linear",
            WorkloadName::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.as_str() == name)
    }
}

impl fmt::Display for WorkloadName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: WorkloadName,
    /// Workload seed: scenes, weights, request mix and noise derive from it.
    pub seed: u64,
    /// Measured duration of the run, in seconds.
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
}

/// Parses the arguments after the program name. A bare `--bench` (which
/// `cargo bench` appends) is ignored; anything else unknown is an error.
///
/// # Errors
///
/// Returns a message naming the missing, malformed or unknown argument.
pub fn parse<I, S>(args: I) -> Result<Args, String>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let flag = arg.as_ref().to_string();
        if flag == "--bench" {
            continue;
        }
        let value = iter
            .next()
            .map(|v| v.as_ref().to_string())
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WorkloadName::parse(&value).ok_or_else(|| {
                    format!(
                        "unknown workload `{value}` (expected one of: {})",
                        WorkloadName::ALL.map(WorkloadName::as_str).join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(parse_number(&flag, &value)?),
            "--seconds" => {
                let s = parse_number(&flag, &value)?;
                if s == 0 {
                    return Err("`--seconds` must be at least 1".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.unwrap_or(false),
    })
}

fn parse_number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("`{flag}` takes a non-negative integer, got `{value}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_command_line_with_the_cargo_bench_flag() {
        let args = parse([
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--bench",
        ])
        .expect("valid");
        assert_eq!(
            args,
            Args {
                workload: WorkloadName::ServeMixed,
                seed: 7,
                seconds: 10,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse(["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(["--frobnicate", "1"]).is_err());
        assert!(parse(["--workload", "kernel_noisy", "--seconds", "1"]).is_err());
        assert!(parse([
            "--workload",
            "kernel_noisy",
            "--seed",
            "1",
            "--seconds",
            "0"
        ])
        .is_err());
    }
}
