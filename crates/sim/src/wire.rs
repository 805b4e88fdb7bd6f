//! The worker wire protocol: sentinel-prefixed, line-oriented messages a
//! `--worker-shard` process streams to its supervisor over stdout.
//!
//! Workers are re-executions of the *current binary* (so they rebuild the
//! same [`crate::RunRequest`]s deterministically instead of serializing
//! them), which means their stdout also carries whatever the figure
//! binary normally prints — headers, tables, progress. The protocol
//! therefore claims a sentinel prefix ([`SENTINEL`]) and the supervisor
//! treats every non-sentinel line as tolerated noise. Malformed *sentinel*
//! lines, by contrast, are protocol corruption and quarantine the worker.
//!
//! Message grammar (one line each, space-separated fields):
//!
//! ```text
//! @sipt1 hello <sweep_seq> <task_count>
//! @sipt1 start <slot>
//! @sipt1 done <slot> <fingerprint:016x> <metrics-hex>
//! @sipt1 fail <slot> <attempts> <elapsed_ms-bits:016x> <message-hex>
//! @sipt1 hb
//! @sipt1 prep <hits> <misses> <fragment_builds> <shared_traces>
//! @sipt1 drained <completed>
//! ```
//!
//! `done` carries the full [`crate::metrics::RunMetrics`] in the
//! checkpoint byte codec ([`crate::checkpoint::encode_metrics`]), hex
//! encoded — the same bit-exact representation `--resume` relies on, so
//! merged sharded results are byte-identical to in-process execution by
//! construction. Free-text fields (panic messages) are hex encoded too:
//! the line framing never depends on their content. `prep` carries the
//! worker's preparation-cache counters for its shard (lookups, fragmented
//! snapshots built, traces shared), sent once when the shard ends (before
//! `drained` on a drain), so the parent's report counts the preparation
//! its workers did.
//!
//! The supervisor's only downstream channel is the worker's stdin, with a
//! single command: [`DRAIN_COMMAND`] (one line) asks the worker to finish
//! its in-flight task, report [`WorkerMsg::Drained`], and exit cleanly.

use crate::checkpoint::{hex_decode, hex_encode};

/// Prefix claiming a stdout line for the supervisor protocol. Versioned:
/// a future incompatible protocol bumps the digit and old supervisors
/// treat the new lines as noise instead of misparsing them.
pub const SENTINEL: &str = "@sipt1";

/// The one stdin command a supervisor sends a worker: drain and exit.
pub const DRAIN_COMMAND: &str = "drain";

/// One worker-to-supervisor message.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMsg {
    /// Worker came up, reached its target sweep, and is about to execute.
    Hello {
        /// Sweep sequence number the worker locked onto.
        sweep_seq: usize,
        /// Number of slots assigned to this worker's shard.
        tasks: usize,
    },
    /// A slot's execution began (the supervisor starts its watchdog clock).
    Start {
        /// Sweep-local slot index.
        slot: usize,
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
    /// Liveness beacon (emitted periodically from a side thread).
    Heartbeat,
    /// The worker's preparation-cache counters over its shard, sent once
    /// when the shard ends.
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
    /// Graceful drain acknowledged: the worker flushed `completed` slots
    /// and is exiting cleanly.
    Drained {
        /// Slots fully executed before the drain.
        completed: usize,
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
            WorkerMsg::Hello { sweep_seq, tasks } => {
                format!("{SENTINEL} hello {sweep_seq} {tasks}")
            }
            WorkerMsg::Start { slot } => format!("{SENTINEL} start {slot}"),
            WorkerMsg::Done { slot, fingerprint, metrics } => {
                format!("{SENTINEL} done {slot} {fingerprint:016x} {}", hex_encode(metrics))
            }
            WorkerMsg::Fail { slot, attempts, elapsed_ms, message } => format!(
                "{SENTINEL} fail {slot} {attempts} {:016x} {}",
                elapsed_ms.to_bits(),
                hex_encode(message.as_bytes())
            ),
            WorkerMsg::Heartbeat => format!("{SENTINEL} hb"),
            WorkerMsg::PrepCache { hits, misses, fragment_builds, shared_traces } => {
                format!("{SENTINEL} prep {hits} {misses} {fragment_builds} {shared_traces}")
            }
            WorkerMsg::Drained { completed } => format!("{SENTINEL} drained {completed}"),
        }
    }

    fn decode_fields(fields: &[&str]) -> Option<WorkerMsg> {
        match *fields {
            ["hello", seq, tasks] => {
                Some(WorkerMsg::Hello { sweep_seq: seq.parse().ok()?, tasks: tasks.parse().ok()? })
            }
            ["start", slot] => Some(WorkerMsg::Start { slot: slot.parse().ok()? }),
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
            ["hb"] => Some(WorkerMsg::Heartbeat),
            ["prep", hits, misses, fragment_builds, shared_traces] => Some(WorkerMsg::PrepCache {
                hits: hits.parse().ok()?,
                misses: misses.parse().ok()?,
                fragment_builds: fragment_builds.parse().ok()?,
                shared_traces: shared_traces.parse().ok()?,
            }),
            ["drained", completed] => {
                Some(WorkerMsg::Drained { completed: completed.parse().ok()? })
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: WorkerMsg) {
        let line = msg.encode();
        assert_eq!(parse_line(&line), Parsed::Msg(msg), "line was {line:?}");
    }

    #[test]
    fn all_messages_roundtrip() {
        roundtrip(WorkerMsg::Hello { sweep_seq: 3, tasks: 7 });
        roundtrip(WorkerMsg::Start { slot: 11 });
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
        roundtrip(WorkerMsg::Heartbeat);
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
        roundtrip(WorkerMsg::Drained { completed: 4 });
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
}
