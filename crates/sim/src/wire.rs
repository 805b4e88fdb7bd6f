//! The worker wire protocol: sentinel-prefixed, line-oriented messages a
//! `--worker-shard` process streams to its supervisor over stdout, and
//! the `run` commands the supervisor writes to the worker's stdin.
//!
//! Workers are re-executions of the *current binary* (so they rebuild the
//! same [`crate::RunRequest`]s deterministically instead of serializing
//! them), which means their stdout also carries whatever the figure
//! binary normally prints — headers, tables, progress. The protocol
//! therefore claims a sentinel prefix ([`SENTINEL`]) and the supervisor
//! treats every non-sentinel line as tolerated noise. Malformed *sentinel*
//! lines, by contrast, are protocol corruption and kill the worker.
//!
//! Worker-to-supervisor grammar (one line each, space-separated fields):
//!
//! ```text
//! @sipt1 hello <sweep_seq> <requests>
//! @sipt1 prep <hits> <misses> <fragment_builds> <shared_traces>
//! @sipt1 done <slot> <fingerprint:016x> <metrics-hex>
//! @sipt1 fail <slot> <attempts> <elapsed_ms-bits:016x> <message-hex>
//! ```
//!
//! `hello` names the sweep the worker's replay reached and how many
//! requests that sweep holds; the supervisor checks both against its own
//! sweep before handing out work. `done` carries the full
//! [`crate::metrics::RunMetrics`] in the checkpoint byte codec
//! ([`crate::checkpoint::encode_metrics`]), hex encoded — the same
//! bit-exact representation `--resume` relies on, so merged results are
//! byte-identical to in-process execution by construction. Free-text
//! fields (panic messages) are hex encoded too: the line framing never
//! depends on their content. `prep` carries what the worker's
//! preparation-cache counters (lookups, fragmented snapshots built,
//! traces shared) gained since its previous `prep` line, sent just before
//! every `done` or `fail`, so the parent's report counts the preparation
//! its workers did, also when a worker dies later.
//!
//! Supervisor-to-worker grammar (stdin, one command per line):
//!
//! ```text
//! run <slot> <prior_deaths>
//! ```
//!
//! `run` asks for one sweep-local slot; the worker answers `done` or
//! `fail`. `prior_deaths` counts the worker processes that already died
//! running this slot, so the worker numbers its attempts after theirs and
//! a `:once` fault fires on the first attempt ever, not once per process.
//! End of input means "finish or drain": the worker exits 0.

use crate::checkpoint::{hex_decode, hex_encode};

/// Prefix claiming a stdout line for the supervisor protocol. Versioned:
/// a future incompatible protocol bumps the digit and old supervisors
/// treat the new lines as noise instead of misparsing them.
pub const SENTINEL: &str = "@sipt1";

/// One worker-to-supervisor message.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Worker came up and its replay reached the target sweep; it now
    /// waits for `run` commands.
    Hello {
        /// Sweep sequence number the worker locked onto.
        sweep_seq: usize,
        /// Number of requests in that sweep as the worker replayed it.
        requests: usize,
    },
    /// A slot completed; carries the bit-exact metrics payload.
    Done {
        /// Sweep-local slot index.
        slot: usize,
        /// [`crate::RunRequest::fingerprint`] recomputed by the worker —
        /// the supervisor cross-checks it against its own request.
        fingerprint: u64,
        /// [`crate::checkpoint::encode_metrics`] bytes.
        metrics: Vec<u8>,
    },
    /// A slot failed permanently inside the worker (typed error or a
    /// panic that exhausted the in-worker retry budget).
    Fail {
        /// Sweep-local slot index.
        slot: usize,
        /// Attempts spent.
        attempts: u32,
        /// Wall-clock milliseconds of the final attempt (IEEE-754 bits,
        /// so the supervisor's failure record is bit-exact).
        elapsed_ms: f64,
        /// Panic / error message.
        message: String,
    },
    /// What the worker's preparation-cache counters gained since its
    /// previous `prep` line; sent before every `done` or `fail`.
    PrepCache {
        /// Lookups that found an existing entry.
        hits: u64,
        /// Lookups that prepared a new entry.
        misses: u64,
        /// Fragmented snapshots built.
        fragment_builds: u64,
        /// Preparations that reused a live trace.
        shared_traces: u64,
    },
}

/// Result of classifying one stdout line.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// Not a protocol line — ordinary binary output, ignored.
    Noise,
    /// A well-formed protocol message.
    Msg(WorkerMsg),
    /// A sentinel line that does not decode: protocol corruption.
    Malformed(String),
}

impl WorkerMsg {
    /// Encode as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            WorkerMsg::Hello { sweep_seq, requests } => {
                format!("{SENTINEL} hello {sweep_seq} {requests}")
            }
            WorkerMsg::Done { slot, fingerprint, metrics } => {
                format!("{SENTINEL} done {slot} {fingerprint:016x} {}", hex_encode(metrics))
            }
            WorkerMsg::Fail { slot, attempts, elapsed_ms, message } => format!(
                "{SENTINEL} fail {slot} {attempts} {:016x} {}",
                elapsed_ms.to_bits(),
                hex_encode(message.as_bytes())
            ),
            WorkerMsg::PrepCache { hits, misses, fragment_builds, shared_traces } => {
                format!("{SENTINEL} prep {hits} {misses} {fragment_builds} {shared_traces}")
            }
        }
    }

    fn decode_fields(fields: &[&str]) -> Option<WorkerMsg> {
        match *fields {
            ["hello", seq, requests] => Some(WorkerMsg::Hello {
                sweep_seq: seq.parse().ok()?,
                requests: requests.parse().ok()?,
            }),
            ["done", slot, fp, hex] => Some(WorkerMsg::Done {
                slot: slot.parse().ok()?,
                fingerprint: u64::from_str_radix(fp, 16).ok()?,
                metrics: hex_decode(hex)?,
            }),
            ["fail", slot, attempts, elapsed, hex] => Some(WorkerMsg::Fail {
                slot: slot.parse().ok()?,
                attempts: attempts.parse().ok()?,
                elapsed_ms: f64::from_bits(u64::from_str_radix(elapsed, 16).ok()?),
                message: String::from_utf8(hex_decode(hex)?).ok()?,
            }),
            // An empty message hex-encodes to nothing, so its field is
            // absent after whitespace splitting.
            ["fail", slot, attempts, elapsed] => Some(WorkerMsg::Fail {
                slot: slot.parse().ok()?,
                attempts: attempts.parse().ok()?,
                elapsed_ms: f64::from_bits(u64::from_str_radix(elapsed, 16).ok()?),
                message: String::new(),
            }),
            ["prep", hits, misses, fragment_builds, shared_traces] => Some(WorkerMsg::PrepCache {
                hits: hits.parse().ok()?,
                misses: misses.parse().ok()?,
                fragment_builds: fragment_builds.parse().ok()?,
                shared_traces: shared_traces.parse().ok()?,
            }),
            _ => None,
        }
    }
}

/// Classify one line of worker stdout.
pub fn parse_line(line: &str) -> Parsed {
    let line = line.trim_end();
    let Some(rest) = line.strip_prefix(SENTINEL) else {
        return Parsed::Noise;
    };
    // The sentinel must be a whole token: "@sipt1x ..." is ordinary
    // output, not a corrupt message.
    if !rest.is_empty() && !rest.starts_with(' ') {
        return Parsed::Noise;
    }
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    match WorkerMsg::decode_fields(&fields) {
        Some(msg) => Parsed::Msg(msg),
        None => Parsed::Malformed(line.to_owned()),
    }
}

/// The supervisor's one command: run a sweep-local slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Sweep-local slot index.
    pub slot: usize,
    /// Worker processes that already died running this slot.
    pub prior_deaths: u32,
}

/// A stdin line that is not a well-formed [`Run`] command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedCommand(pub String);

impl core::fmt::Display for MalformedCommand {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "malformed supervisor command {:?}", self.0)
    }
}

impl Run {
    /// Encode as one command line (no trailing newline).
    pub fn encode(&self) -> String {
        format!("run {} {}", self.slot, self.prior_deaths)
    }

    /// Parse one command line.
    ///
    /// # Errors
    ///
    /// [`MalformedCommand`] for anything but `run <slot> <prior_deaths>`.
    pub fn parse(line: &str) -> Result<Run, MalformedCommand> {
        let fields: Vec<&str> = line.split_ascii_whitespace().collect();
        let decoded = match *fields {
            ["run", slot, deaths] => slot
                .parse()
                .ok()
                .zip(deaths.parse().ok())
                .map(|(slot, prior_deaths)| Run { slot, prior_deaths }),
            _ => None,
        };
        decoded.ok_or_else(|| MalformedCommand(line.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: WorkerMsg) {
        let line = msg.encode();
        assert_eq!(parse_line(&line), Parsed::Msg(msg), "line was {line:?}");
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(WorkerMsg::Hello { sweep_seq: 3, requests: 7 });
        roundtrip(WorkerMsg::Hello { sweep_seq: 0, requests: usize::MAX });
        roundtrip(WorkerMsg::Done {
            slot: 2,
            fingerprint: 0xdead_beef_0123_4567,
            metrics: vec![0, 1, 2, 0xff, 0x80],
        });
        roundtrip(WorkerMsg::Fail {
            slot: 5,
            attempts: 2,
            elapsed_ms: 12.625,
            message: "injected fault: panic at task 9 (attempt 1)\nwith newline".into(),
        });
        roundtrip(WorkerMsg::PrepCache {
            hits: 20,
            misses: 4,
            fragment_builds: 1,
            shared_traces: 3,
        });
        roundtrip(WorkerMsg::PrepCache {
            hits: 0,
            misses: u64::MAX,
            fragment_builds: u64::MAX,
            shared_traces: 0,
        });
    }

    #[test]
    fn run_commands_roundtrip() {
        for run in [
            Run { slot: 0, prior_deaths: 0 },
            Run { slot: 23, prior_deaths: 2 },
            Run { slot: usize::MAX, prior_deaths: u32::MAX },
        ] {
            assert_eq!(Run::parse(&run.encode()), Ok(run));
        }
        assert_eq!(Run::parse("run 4 1\n"), Ok(Run { slot: 4, prior_deaths: 1 }));
    }

    #[test]
    fn ordinary_output_is_noise() {
        for line in [
            "== fig02 ==",
            "bench      base_ipc   sipt_ipc",
            "",
            "   ",
            "@sipt1x not actually the sentinel token",
            "warning: resume: sweep 0 restored 2/12 task(s)",
        ] {
            assert_eq!(parse_line(line), Parsed::Noise, "line was {line:?}");
        }
    }

    #[test]
    fn corrupt_sentinel_lines_are_malformed_not_noise() {
        for line in [
            "@sipt1",
            "@sipt1 hello 3",
            "@sipt1 hello 3 x",
            "@sipt1 hello 3 4 5",
            "@sipt1 start 1",
            "@sipt1 hb",
            "@sipt1 drained 4",
            "@sipt1 done notanumber ffff 00",
            "@sipt1 done 1 xyz 00",
            "@sipt1 done 1 ffff zz",
            "@sipt1 explode 3",
            "@sipt1 fail 1 2 0 oddhex1",
            "@sipt1 prep",
            "@sipt1 prep 3",
            "@sipt1 prep 3 4",
            "@sipt1 prep 3 4 5",
            "@sipt1 prep 3 -1 0 0",
            "@sipt1 prep x 4 0 0",
            "@sipt1 prep 3 4 -5 0",
            "@sipt1 prep 3 4 5 y",
            "@sipt1 prep 3 4 5 6 7",
        ] {
            assert!(
                matches!(parse_line(line), Parsed::Malformed(_)),
                "line {line:?} must be malformed"
            );
        }
    }

    #[test]
    fn malformed_run_commands_are_typed_errors() {
        for line in [
            "",
            "run",
            "run 1",
            "run 1 2 3",
            "run -1 0",
            "run 1 -1",
            "run x 0",
            "run 1 y",
            "run 1 4294967296",
            "drain",
            "RUN 1 0",
            "@sipt1 run 1 0",
        ] {
            assert_eq!(Run::parse(line), Err(MalformedCommand(line.to_owned())), "{line:?}");
        }
    }

    #[test]
    fn fail_elapsed_is_bit_exact() {
        let msg = WorkerMsg::Fail {
            slot: 0,
            attempts: 1,
            elapsed_ms: f64::MIN_POSITIVE,
            message: String::new(),
        };
        let Parsed::Msg(WorkerMsg::Fail { elapsed_ms, .. }) = parse_line(&msg.encode()) else {
            panic!("fail line must decode");
        };
        assert_eq!(elapsed_ms.to_bits(), f64::MIN_POSITIVE.to_bits());
    }

    #[test]
    fn done_carries_checkpoint_codec_payload() {
        // A realistic payload: the checkpoint codec's own unit sample.
        let metrics =
            crate::checkpoint::encode_metrics(&crate::RunMetrics::failed_placeholder("wire-unit"));
        let msg = WorkerMsg::Done { slot: 1, fingerprint: 42, metrics: metrics.clone() };
        let Parsed::Msg(WorkerMsg::Done { metrics: back, .. }) = parse_line(&msg.encode()) else {
            panic!("done line must decode");
        };
        let decoded = crate::checkpoint::decode_metrics(&back).expect("codec payload survives");
        assert_eq!(decoded.name, "wire-unit");
    }

    /// One valid line of every kind, worker messages and the command.
    fn valid_lines() -> Vec<String> {
        let metrics =
            crate::checkpoint::encode_metrics(&crate::RunMetrics::failed_placeholder("mutant"));
        vec![
            WorkerMsg::Hello { sweep_seq: 2, requests: 24 }.encode(),
            WorkerMsg::Done { slot: 7, fingerprint: 0x0123_4567_89ab_cdef, metrics }.encode(),
            WorkerMsg::Fail { slot: 3, attempts: 2, elapsed_ms: 1.5, message: "boom".into() }
                .encode(),
            WorkerMsg::PrepCache { hits: 9, misses: 3, fragment_builds: 1, shared_traces: 2 }
                .encode(),
            Run { slot: 11, prior_deaths: 1 }.encode(),
        ]
    }

    proptest! {
        /// Fuzz-style robustness of both directions: random byte edits
        /// (overwrite, insert, delete, truncate) of valid lines classify
        /// as noise, a message or a malformed line, and parse as a command
        /// or a typed error — never a panic. Whatever still decodes
        /// re-encodes to a line that decodes to the same value (compared
        /// by encoding, since a mutated `fail` may carry a NaN).
        #[test]
        fn mutated_lines_never_panic(
            which in 0usize..5,
            edits in proptest::collection::vec((any::<u64>(), any::<u8>(), 0u8..4), 1..6),
        ) {
            let mut bytes = valid_lines()[which].clone().into_bytes();
            for (at, byte, op) in edits {
                let at = (at % (bytes.len() as u64 + 1)) as usize;
                match op {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.truncate(at),
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            if let Parsed::Msg(msg) = parse_line(&line) {
                let again = msg.encode();
                let Parsed::Msg(back) = parse_line(&again) else {
                    panic!("re-encoded {again:?} must decode");
                };
                prop_assert_eq!(back.encode(), again);
            }
            if let Ok(run) = Run::parse(&line) {
                prop_assert_eq!(Run::parse(&run.encode()), Ok(run));
            }
        }
    }
}
