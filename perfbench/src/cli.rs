//! Strict command-line parsing: unknown flags, missing values, repeated
//! flags and unparsable numbers are errors, never silent defaults.

use std::fmt;

/// The campaign seed `repro_all` uses by default; the committed digests
/// are taken at this seed.
pub const DEFAULT_SEED: u64 = 0xCE27A;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Everything `repro_all` regenerates, at its default 40 trials.
    Repro,
    /// One durable distributed campaign over loopback TCP.
    Dist,
}

impl Workload {
    /// Every workload, in the order `--bless` visits them.
    pub const ALL: [Workload; 2] = [Workload::Repro, Workload::Dist];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Dist => "dist",
        }
    }

    /// Parses a `--workload` value; `all` names every workload.
    fn parse(s: &str) -> Result<Vec<Self>, CliError> {
        if s == "all" {
            return Ok(Workload::ALL.to_vec());
        }
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .map(|w| vec![w])
            .ok_or_else(|| CliError(format!("unknown workload {s:?} (repro, dist or all)")))
    }
}

/// What the command was asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Measure each workload for `seconds`, one child process per
    /// repetition.
    Measure {
        /// The workloads to run, in order.
        workloads: Vec<Workload>,
        /// Campaign seed every generated config derives from.
        seed: u64,
        /// How long to keep starting repetitions.
        seconds: u64,
        /// Whether to report per-layer metrics from traced repetitions.
        trace: bool,
    },
    /// Run one repetition in this process and report it on stdout.
    Child {
        /// The workload to run.
        workload: Workload,
        /// Campaign seed.
        seed: u64,
        /// Whether to record spans.
        trace: bool,
        /// Whether to run the untimed differential checks as well (the
        /// first repetition of a run does; the rest are compared with it).
        verify: bool,
    },
    /// Rewrite the committed digests from one run of every workload at
    /// [`DEFAULT_SEED`].
    Bless,
}

/// A command-line error, with the message to print.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage text printed with every command-line error.
pub const USAGE: &str = "usage: certa-perfbench --workload <repro|dist|all> \
[--seed N] [--seconds N] [--trace 0|1]\n       certa-perfbench --bless\n       \
certa-perfbench --child --workload W [--seed N] [--trace 0|1] [--verify 0|1]";

/// Parses a decimal or `0x`-prefixed hexadecimal `u64`.
fn parse_u64(flag: &str, value: &str) -> Result<u64, CliError> {
    let parsed = match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|e| CliError(format!("{flag}: cannot parse {value:?} as a number: {e}")))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns the reason the arguments are not a valid invocation.
pub fn parse(args: &[String]) -> Result<Mode, CliError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut verify = None;
    let mut child = false;
    let mut bless = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--child" | "--bless" => {
                let slot = if flag == "--child" {
                    &mut child
                } else {
                    &mut bless
                };
                if *slot {
                    return Err(CliError(format!("{flag} given twice")));
                }
                *slot = true;
                i += 1;
                continue;
            }
            "--workload" | "--seed" | "--seconds" | "--trace" | "--verify" => {}
            other => return Err(CliError(format!("unknown argument {other:?}"))),
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
        let repeated = match flag {
            "--workload" => workload.replace(Workload::parse(value)?).is_some(),
            "--seed" => seed.replace(parse_u64(flag, value)?).is_some(),
            "--seconds" => {
                let n = parse_u64(flag, value)?;
                if !(1..=3600).contains(&n) {
                    return Err(CliError(format!("--seconds must be 1..=3600, got {n}")));
                }
                seconds.replace(n).is_some()
            }
            _ => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(CliError(format!("{flag} must be 0 or 1, got {other:?}"))),
                };
                let slot = if flag == "--trace" {
                    &mut trace
                } else {
                    &mut verify
                };
                slot.replace(on).is_some()
            }
        };
        if repeated {
            return Err(CliError(format!("{flag} given twice")));
        }
        i += 2;
    }
    if bless {
        if child
            || workload.is_some()
            || seed.is_some()
            || seconds.is_some()
            || trace.is_some()
            || verify.is_some()
        {
            return Err(CliError("--bless takes no other arguments".into()));
        }
        return Ok(Mode::Bless);
    }
    let workloads: Vec<Workload> = workload.ok_or_else(|| CliError("missing --workload".into()))?;
    let seed = seed.unwrap_or(DEFAULT_SEED);
    let trace = trace.unwrap_or(false);
    if child {
        if seconds.is_some() || workloads.len() != 1 {
            return Err(CliError(
                "--child runs one repetition of one workload and takes no --seconds".into(),
            ));
        }
        return Ok(Mode::Child {
            workload: workloads[0],
            seed,
            trace,
            verify: verify.unwrap_or(true),
        });
    }
    if verify.is_some() {
        return Err(CliError("--verify is for --child repetitions only".into()));
    }
    Ok(Mode::Measure {
        workloads,
        seed,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_measurement_invocation() {
        assert_eq!(
            parse(&args("--workload dist --seed 7 --seconds 12 --trace 1")),
            Ok(Mode::Measure {
                workloads: vec![Workload::Dist],
                seed: 7,
                seconds: 12,
                trace: true
            })
        );
    }

    #[test]
    fn defaults_and_hex_seeds() {
        assert_eq!(
            parse(&args("--workload repro")),
            Ok(Mode::Measure {
                workloads: vec![Workload::Repro],
                seed: DEFAULT_SEED,
                seconds: 10,
                trace: false
            })
        );
        assert_eq!(
            parse(&args("--child --workload repro --seed 0xCE27A --trace 0")),
            Ok(Mode::Child {
                workload: Workload::Repro,
                seed: DEFAULT_SEED,
                trace: false,
                verify: true
            })
        );
        assert_eq!(
            parse(&args("--child --workload dist --verify 0")),
            Ok(Mode::Child {
                workload: Workload::Dist,
                seed: DEFAULT_SEED,
                trace: false,
                verify: false
            })
        );
        assert_eq!(parse(&args("--bless")), Ok(Mode::Bless));
        assert!(matches!(
            parse(&args("--workload all")),
            Ok(Mode::Measure { workloads, .. }) if workloads == Workload::ALL
        ));
    }

    #[test]
    fn rejects_what_a_lenient_parser_would_swallow() {
        for bad in [
            "--workload repro --trails 1000",
            "--workload repro --seed 12x",
            "--workload repro --seed -1",
            "--workload repro --seconds 0",
            "--workload repro --seconds ten",
            "--workload repro --trace 2",
            "--workload repro --seed",
            "--workload repro --workload dist",
            "--workload nope",
            "--seed 1",
            "--bless --workload repro",
            "--child --workload repro --seconds 3",
            "--child --workload all",
            "--child --workload repro --verify yes",
            "--workload repro --verify 0",
            "repro",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
