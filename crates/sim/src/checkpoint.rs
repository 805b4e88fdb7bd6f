//! Sweep checkpoint/resume: bit-exact persistence of completed run
//! metrics.
//!
//! Long figure sweeps are the unit of work that must survive
//! interruption (ROADMAP: "serve millions of runs"). As each pool task
//! finishes, its [`RunMetrics`] are appended — under a file lock, one
//! JSONL line per task — to `results/<name>.checkpoint.json`. A restart
//! with `--resume` loads that file and [`crate::sweep::Sweep`] skips
//! every request whose *fingerprint* (an FNV-1a hash of the full request
//! Debug form) has a stored result, restoring the metrics **bit-exactly**:
//! every `f64` is persisted as its IEEE-754 bit pattern, so a resumed
//! report's scientific payload is byte-identical to an uninterrupted
//! run's.
//!
//! Matching is content-addressed (by fingerprint, not by position):
//! each run is a pure function of its request, so any stored result for
//! an identical request is valid regardless of sweep ordering. Entries
//! whose fingerprint no longer matches (changed config, different scale)
//! are simply ignored. A truncated final line — the typical artifact of
//! killing a process mid-write — is skipped with a warning, never an
//! abort.
//!
//! The codec is a versioned, length-prefixed little-endian byte stream,
//! hex-encoded into the JSON line. It is deliberately hand-rolled: the
//! repo's JSON layer keeps numbers as `f64`, which cannot round-trip
//! 64-bit counters or NaN-free bit patterns exactly.

use crate::error::SimError;
use crate::metrics::{PhaseProfile, RunMetrics};
use sipt_cache::{LevelStats, WayPredStats};
use sipt_core::SiptStats;
use sipt_cpu::CoreResult;
use sipt_dram::DramStats;
use sipt_energy::EnergyBreakdown;
use sipt_telemetry::hist::{Log2Histogram, BUCKETS};
use sipt_telemetry::MetricsSnapshot;
use sipt_tlb::TlbStats;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Codec version byte. Bump on any layout change; entries with another
/// version are ignored (treated as cache misses), never misparsed.
const CODEC_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit hash — the checkpoint's content fingerprint. Stable
/// across runs and platforms (no randomized state, unlike
/// `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Human-readable checkpoint key for sweep `seq`, task `index`. Purely
/// diagnostic — restore matches on fingerprints, so resumed processes
/// that execute sweeps in a different order still hit.
pub fn task_key(sweep_seq: usize, index: usize) -> String {
    format!("s{sweep_seq}.t{index}")
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Self {
        Self { buf: Vec::with_capacity(512) }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u64()?;
        // Plausibility bound: no string in a metrics record approaches
        // a megabyte; a corrupt length must not trigger a huge take.
        if len > 1 << 20 {
            return None;
        }
        String::from_utf8(self.take(len as usize)?.to_vec()).ok()
    }
    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn enc_opt<T>(e: &mut Enc, v: &Option<T>, f: impl FnOnce(&mut Enc, &T)) {
    match v {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            f(e, v);
        }
    }
}

fn dec_opt<T>(d: &mut Dec<'_>, f: impl FnOnce(&mut Dec<'_>) -> Option<T>) -> Option<Option<T>> {
    match d.u8()? {
        0 => Some(None),
        1 => Some(Some(f(d)?)),
        _ => None,
    }
}

fn enc_hist(e: &mut Enc, h: &Log2Histogram) {
    let (buckets, count, sum, min, max) = h.raw_parts();
    for &b in buckets.iter() {
        e.u64(b);
    }
    e.u64(count);
    e.u128(sum);
    e.u64(min);
    e.u64(max);
}

fn dec_hist(d: &mut Dec<'_>) -> Option<Log2Histogram> {
    let mut buckets = [0u64; BUCKETS];
    for b in buckets.iter_mut() {
        *b = d.u64()?;
    }
    let count = d.u64()?;
    let sum = d.u128()?;
    let min = d.u64()?;
    let max = d.u64()?;
    Some(Log2Histogram::from_raw_parts(buckets, count, sum, min, max))
}

fn enc_snapshot(e: &mut Enc, s: &MetricsSnapshot) {
    e.u64(s.counters.len() as u64);
    for (k, &v) in &s.counters {
        e.str(k);
        e.u64(v);
    }
    e.u64(s.gauges.len() as u64);
    for (k, &v) in &s.gauges {
        e.str(k);
        e.f64(v);
    }
    e.u64(s.histograms.len() as u64);
    for (k, h) in &s.histograms {
        e.str(k);
        enc_hist(e, h);
    }
}

fn dec_snapshot(d: &mut Dec<'_>) -> Option<MetricsSnapshot> {
    let mut s = MetricsSnapshot::default();
    for _ in 0..d.u64()?.min(1 << 20) {
        let k = d.str()?;
        s.counters.insert(k, d.u64()?);
    }
    for _ in 0..d.u64()?.min(1 << 20) {
        let k = d.str()?;
        s.gauges.insert(k, d.f64()?);
    }
    for _ in 0..d.u64()?.min(1 << 20) {
        let k = d.str()?;
        s.histograms.insert(k, dec_hist(d)?);
    }
    Some(s)
}

fn enc_level(e: &mut Enc, s: &LevelStats) {
    for v in [s.accesses, s.hits, s.misses, s.fills, s.writebacks] {
        e.u64(v);
    }
}

fn dec_level(d: &mut Dec<'_>) -> Option<LevelStats> {
    Some(LevelStats {
        accesses: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        fills: d.u64()?,
        writebacks: d.u64()?,
    })
}

/// Encode a [`RunMetrics`] into the checkpoint byte stream.
pub fn encode_metrics(m: &RunMetrics) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(CODEC_VERSION);
    e.str(&m.name);
    for v in [m.core.instructions, m.core.cycles, m.core.mem_ops] {
        e.u64(v);
    }
    for v in [
        m.sipt.accesses,
        m.sipt.hits,
        m.sipt.misses,
        m.sipt.array_reads,
        m.sipt.extra_accesses,
        m.sipt.fast_accesses,
        m.sipt.correct_speculation,
        m.sipt.correct_bypass,
        m.sipt.opportunity_loss,
        m.sipt.idb_hits,
        m.sipt.writebacks,
    ] {
        e.u64(v);
    }
    enc_opt(&mut e, &m.way_pred, |e, w| {
        for v in [w.correct, w.wrong, w.misses] {
            e.u64(v);
        }
    });
    for v in [m.tlb.l1_hits, m.tlb.l2_hits, m.tlb.walks, m.tlb.faults] {
        e.u64(v);
    }
    enc_opt(&mut e, &m.l2, enc_level);
    enc_level(&mut e, &m.llc);
    for v in [
        m.dram.reads,
        m.dram.writes,
        m.dram.row_hits,
        m.dram.row_closed,
        m.dram.row_conflicts,
        m.dram.queue_cycles,
    ] {
        e.u64(v);
    }
    for v in [
        m.energy.l1_dynamic,
        m.energy.l1_static,
        m.energy.l2_dynamic,
        m.energy.l2_static,
        m.energy.llc_dynamic,
        m.energy.llc_static,
        m.energy.predictor,
    ] {
        e.f64(v);
    }
    e.f64(m.huge_fraction);
    for v in
        [m.phases.allocate_ms, m.phases.warmup_ms, m.phases.measure_ms, m.phases.simulated_mips]
    {
        e.f64(v);
    }
    e.u64(m.phases.worker as u64);
    enc_opt(&mut e, &m.l1_metrics, enc_snapshot);
    e.buf
}

/// Decode a checkpoint byte stream back into a [`RunMetrics`]. `None`
/// on any truncation, version mismatch, or trailing garbage — the entry
/// is then treated as absent.
pub fn decode_metrics(bytes: &[u8]) -> Option<RunMetrics> {
    let mut d = Dec::new(bytes);
    if d.u8()? != CODEC_VERSION {
        return None;
    }
    let name = d.str()?;
    let core = CoreResult { instructions: d.u64()?, cycles: d.u64()?, mem_ops: d.u64()? };
    let sipt = SiptStats {
        accesses: d.u64()?,
        hits: d.u64()?,
        misses: d.u64()?,
        array_reads: d.u64()?,
        extra_accesses: d.u64()?,
        fast_accesses: d.u64()?,
        correct_speculation: d.u64()?,
        correct_bypass: d.u64()?,
        opportunity_loss: d.u64()?,
        idb_hits: d.u64()?,
        writebacks: d.u64()?,
    };
    let way_pred = dec_opt(&mut d, |d| {
        Some(WayPredStats { correct: d.u64()?, wrong: d.u64()?, misses: d.u64()? })
    })?;
    let tlb = TlbStats { l1_hits: d.u64()?, l2_hits: d.u64()?, walks: d.u64()?, faults: d.u64()? };
    let l2 = dec_opt(&mut d, dec_level)?;
    let llc = dec_level(&mut d)?;
    let dram = DramStats {
        reads: d.u64()?,
        writes: d.u64()?,
        row_hits: d.u64()?,
        row_closed: d.u64()?,
        row_conflicts: d.u64()?,
        queue_cycles: d.u64()?,
    };
    let energy = EnergyBreakdown {
        l1_dynamic: d.f64()?,
        l1_static: d.f64()?,
        l2_dynamic: d.f64()?,
        l2_static: d.f64()?,
        llc_dynamic: d.f64()?,
        llc_static: d.f64()?,
        predictor: d.f64()?,
    };
    let huge_fraction = d.f64()?;
    let phases = PhaseProfile {
        allocate_ms: d.f64()?,
        warmup_ms: d.f64()?,
        measure_ms: d.f64()?,
        simulated_mips: d.f64()?,
        worker: d.u64()? as usize,
    };
    let l1_metrics = dec_opt(&mut d, dec_snapshot)?;
    if !d.done() {
        return None; // trailing garbage: corrupt entry
    }
    Some(RunMetrics {
        name,
        core,
        sipt,
        way_pred,
        tlb,
        l2,
        llc,
        dram,
        energy,
        huge_fraction,
        phases,
        l1_metrics,
    })
}

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

pub(crate) fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    };
    let b = s.as_bytes();
    (0..s.len() / 2).map(|i| Some(nibble(b[2 * i])? << 4 | nibble(b[2 * i + 1])?)).collect()
}

// ---------------------------------------------------------------------------
// The checkpoint file
// ---------------------------------------------------------------------------

struct Inner {
    path: PathBuf,
    /// Results loaded from a previous (interrupted) run, keyed by request
    /// fingerprint. Last write wins on duplicates.
    restored: HashMap<u64, RunMetrics>,
    /// Append handle; every completed task writes one line under this
    /// lock and flushes, so a kill between tasks loses at most the line
    /// being written (which the loader skips).
    file: Mutex<File>,
}

/// A handle to the active checkpoint file, shared by every sweep worker.
#[derive(Clone)]
pub struct CheckpointHandle {
    inner: Arc<Inner>,
}

impl CheckpointHandle {
    /// Path of the underlying checkpoint file.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// Number of entries restored from disk at configure time.
    pub fn restored_len(&self) -> usize {
        self.inner.restored.len()
    }

    /// The stored metrics for a request with this fingerprint, if the
    /// previous run completed it. `key` is diagnostic only.
    pub fn restore(&self, _key: &str, fingerprint: u64) -> Option<RunMetrics> {
        self.inner.restored.get(&fingerprint).cloned()
    }

    /// Persist one completed task. Failures to write are reported on
    /// stderr but never abort the sweep — a checkpoint is an optimization,
    /// not a correctness requirement.
    pub fn append(&self, key: &str, fingerprint: u64, metrics: &RunMetrics) {
        let _span = sipt_telemetry::Span::enter(format!("ckpt append {key}"), "checkpoint");
        let line = format!(
            "{{\"key\":\"{key}\",\"fp\":\"{fingerprint:016x}\",\"m\":\"{}\"}}\n",
            hex_encode(&encode_metrics(metrics))
        );
        let mut file = self.inner.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Err(e) = file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
            eprintln!("warning: checkpoint append to {} failed: {e}", self.inner.path.display());
        }
    }
}

/// Parse one checkpoint JSONL line into `(fingerprint, metrics)`.
/// `None` for malformed/truncated/incompatible lines.
fn parse_line(line: &str) -> Option<(u64, RunMetrics)> {
    // The writer emits exactly one shape; a tolerant field scan is enough
    // (and survives reordering).
    let field = |name: &str| -> Option<&str> {
        let tag = format!("\"{name}\":\"");
        let start = line.find(&tag)? + tag.len();
        let end = line[start..].find('"')? + start;
        Some(&line[start..end])
    };
    let fp = u64::from_str_radix(field("fp")?, 16).ok()?;
    let metrics = decode_metrics(&hex_decode(field("m")?)?)?;
    Some((fp, metrics))
}

static ACTIVE: Mutex<Option<CheckpointHandle>> = Mutex::new(None);

/// The process-wide active checkpoint, when one was configured. Sweeps
/// call this at the start of every execution.
pub fn active() -> Option<CheckpointHandle> {
    ACTIVE.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
}

/// Disable checkpointing (used by tests between scenarios).
pub fn clear() {
    *ACTIVE.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// Configure the process-wide checkpoint file.
///
/// With `resume = true`, any existing entries are loaded (malformed lines
/// — e.g. the torn final line of a killed process — are skipped with a
/// warning) and subsequent writes append. With `resume = false` the file
/// is truncated and a fresh checkpoint starts.
///
/// # Errors
///
/// [`SimError::Checkpoint`] when the file (or its parent directory)
/// cannot be created or read.
pub fn configure(path: &Path, resume: bool) -> Result<CheckpointHandle, SimError> {
    let _span = sipt_telemetry::Span::enter(format!("ckpt load {}", path.display()), "checkpoint");
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| SimError::checkpoint(path.display().to_string(), e.to_string()))?;
        }
    }
    let mut restored = HashMap::new();
    if resume {
        match std::fs::read_to_string(path) {
            Ok(contents) => {
                let mut corrupt = 0u64;
                for (lineno, line) in contents.lines().enumerate() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_line(line) {
                        Some((fp, metrics)) => {
                            restored.insert(fp, metrics);
                        }
                        None => {
                            corrupt += 1;
                            eprintln!(
                                "warning: skipping malformed checkpoint line {} in {}",
                                lineno + 1,
                                path.display()
                            );
                        }
                    }
                }
                // Corruption is tolerated (the affected tasks simply
                // re-run) but never silent: the count lands in the
                // resilience report block alongside the per-line warnings.
                if corrupt > 0 {
                    crate::resilience::record_corrupt_checkpoint_lines(corrupt);
                    eprintln!(
                        "warning: {} corrupt checkpoint line(s) in {} were skipped; \
                         the affected task(s) will re-run",
                        corrupt,
                        path.display()
                    );
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(SimError::checkpoint(path.display().to_string(), e.to_string()));
            }
        }
    }
    let file = OpenOptions::new()
        .create(true)
        .append(resume)
        .truncate(!resume)
        .write(true)
        .open(path)
        .map_err(|e| SimError::checkpoint(path.display().to_string(), e.to_string()))?;
    let handle = CheckpointHandle {
        inner: Arc::new(Inner { path: path.to_owned(), restored, file: Mutex::new(file) }),
    };
    *ACTIVE.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(handle.clone());
    Ok(handle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> RunMetrics {
        let mut m = RunMetrics {
            name: "unit".to_owned(),
            core: CoreResult { instructions: 123, cycles: 456, mem_ops: 78 },
            sipt: SiptStats { accesses: 9, hits: 5, misses: 4, ..Default::default() },
            way_pred: Some(WayPredStats { correct: 3, wrong: 1, misses: 2 }),
            tlb: TlbStats { l1_hits: 7, l2_hits: 2, walks: 1, faults: 0 },
            l2: None,
            llc: LevelStats { accesses: 11, hits: 6, misses: 5, fills: 5, writebacks: 2 },
            dram: DramStats { reads: 4, writes: 1, ..Default::default() },
            energy: EnergyBreakdown {
                l1_dynamic: 0.1 + 0.2, // deliberately non-representable exactly
                l1_static: 1e-300,
                ..Default::default()
            },
            huge_fraction: 1.0 / 3.0,
            phases: PhaseProfile {
                allocate_ms: 0.25,
                warmup_ms: f64::MIN_POSITIVE,
                measure_ms: 7.125,
                simulated_mips: 1234.5,
                worker: 3,
            },
            l1_metrics: None,
        };
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("l1.hits".into(), 42);
        snap.gauges.insert("frag".into(), 0.375);
        let mut h = Log2Histogram::new();
        h.record(3);
        h.record(900);
        snap.histograms.insert("lat".into(), h);
        m.l1_metrics = Some(snap);
        m
    }

    #[test]
    fn codec_roundtrips_bit_exactly() {
        let m = sample_metrics();
        let bytes = encode_metrics(&m);
        let back = decode_metrics(&bytes).expect("decodes");
        // Bit-exactness: the re-encoded stream is identical.
        assert_eq!(encode_metrics(&back), bytes);
        assert_eq!(back.name, m.name);
        assert_eq!(back.core, m.core);
        assert_eq!(back.sipt, m.sipt);
        assert_eq!(back.l1_metrics, m.l1_metrics);
        assert_eq!(back.energy.l1_dynamic.to_bits(), m.energy.l1_dynamic.to_bits());
        assert_eq!(back.phases.warmup_ms.to_bits(), m.phases.warmup_ms.to_bits());
    }

    #[test]
    fn codec_rejects_truncation_and_version_skew() {
        let bytes = encode_metrics(&sample_metrics());
        for cut in [0, 1, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_metrics(&bytes[..cut]).is_none(), "cut at {cut} must fail");
        }
        let mut skew = bytes.clone();
        skew[0] = CODEC_VERSION + 1;
        assert!(decode_metrics(&skew).is_none(), "future version must be ignored");
        let mut trailing = bytes;
        trailing.push(0);
        assert!(decode_metrics(&trailing).is_none(), "trailing garbage must be rejected");
    }

    #[test]
    fn hex_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&data)).unwrap(), data);
        assert!(hex_decode("abc").is_none(), "odd length");
        assert!(hex_decode("zz").is_none(), "non-hex digit");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn file_roundtrip_with_torn_final_line() {
        let dir = std::env::temp_dir().join(format!("sipt-ckpt-test-{}", std::process::id()));
        let path = dir.join("unit.checkpoint.json");
        let m = sample_metrics();
        {
            let handle = configure(&path, false).expect("fresh checkpoint");
            handle.append(&task_key(0, 0), 0xdead_beef, &m);
            clear();
        }
        // Simulate a kill mid-write: a torn, incomplete second line.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"key\":\"s0.t1\",\"fp\":\"0000000000000001\",\"m\":\"01ab").unwrap();
        }
        let corrupt_before = crate::resilience::corrupt_checkpoint_lines();
        let handle = configure(&path, true).expect("resume");
        assert_eq!(handle.restored_len(), 1, "torn line skipped, good line kept");
        assert!(
            crate::resilience::corrupt_checkpoint_lines() > corrupt_before,
            "the torn line must be counted, not just warned about"
        );
        let back = handle.restore("s9.t9", 0xdead_beef).expect("fingerprint hit");
        assert_eq!(encode_metrics(&back), encode_metrics(&m), "bit-exact restore");
        assert!(handle.restore("s0.t0", 0x1234).is_none(), "unknown fingerprint misses");
        clear();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn task_keys_are_stable() {
        assert_eq!(task_key(3, 17), "s3.t17");
    }
}
