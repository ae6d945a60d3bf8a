//! The `decamouflage-checkpoint v1` format: one shard's progress through
//! a corpus scan, written atomically at every chunk boundary so a crash
//! loses at most one chunk of work.
//!
//! A checkpoint records everything needed to resume or merge a shard:
//!
//! ```text
//! decamouflage-checkpoint v1
//! shard 2/3
//! corpus 64a7cdd168032b17 64
//! methods scaling/mse,filtering/ssim,steganalysis/csp
//! done 4
//! counter decam_engine_scored_total 3
//! hist decam_engine_stage_seconds{stage=decode} 3 4.50000000000000011e-3 …
//! score 1 7.24000000000000021e1 6.40000000000000013e-1 2.00000000000000000e0
//! score 5 1.19999999999999996e1 8.99999999999999967e-1 1.00000000000000000e0
//! quarantine 9 unreadable cannot read corpus/x07.bmp: truncated header
//! score 14 3.20000000000000018e1 7.00000000000000067e-1 0.00000000000000000e0
//! ```
//!
//! * `shard` — the [`ShardSpec`] this checkpoint belongs to (1-based
//!   `k/N` rendering).
//! * `corpus` — the [`CorpusFingerprint`] (order-sensitive hash over the
//!   *full* corpus key list, plus its length) that pins the checkpoint
//!   to one corpus; resume and merge refuse on mismatch.
//! * `methods` — the [`MethodSet`] whose scores the `score` rows carry,
//!   comma-joined in canonical order.
//! * `done` — the number of completed rows the file claims to hold; the
//!   parser counts and refuses a file truncated mid-write (belt to the
//!   atomic-rename braces).
//! * `counter`/`gauge`/`hist` — an optional embedded telemetry
//!   [`RegistrySnapshot`], so merged scans can report exact combined
//!   histogram moments (`sum_sq` never survives a Prometheus exposition,
//!   so it must travel here).
//! * `score`/`quarantine` rows — per-image results addressed by
//!   **corpus-global** index, in strictly ascending order. Scores are
//!   written with 17 significant digits (exact `f64` round-trip);
//!   quarantine rows carry the stable [`crate::ScoreFault::kind`] tag and the
//!   cause message.
//!
//! The quarantine message is the *cause* only — deliberately not the
//! full [`ScoreError`] display, whose embedded shard-local image index
//! would differ between a sharded and an unsharded scan of the same
//! corpus and break the bit-identical-merge invariant.

use super::textfmt;
use crate::error::{ScoreError, ScoreFault};
use crate::method::{MethodId, MethodSet, ScoreColumns, ScoreVector};
use crate::stream::{stable_key_hash, ShardSpec, FNV_OFFSET, FNV_PRIME};
use crate::DetectError;
use decamouflage_telemetry::{HistogramSnapshot, Labels, RegistrySnapshot};
use std::fmt::Write as _;
use std::path::Path;

const HEADER: &str = "decamouflage-checkpoint v1";

/// An order-sensitive fingerprint of a corpus: a 64-bit hash folded over
/// the full key list (each key contributing its [`stable_key_hash`])
/// plus the corpus length. Two corpora fingerprint equal only when they
/// list the same keys in the same canonical order, which is exactly the
/// precondition for shard checkpoints to be resumable and mergeable —
/// global row indices are meaningless across different listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusFingerprint {
    hash: u64,
    len: usize,
}

impl CorpusFingerprint {
    /// Fingerprints a corpus from its canonical key list (e.g.
    /// [`DirectorySource::shard_keys`](crate::stream::DirectorySource::shard_keys)).
    pub fn of_keys<I>(keys: I) -> Self
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut hash = FNV_OFFSET;
        let mut len = 0usize;
        for key in keys {
            hash ^= stable_key_hash(key.as_ref());
            hash = hash.wrapping_mul(FNV_PRIME);
            len += 1;
        }
        Self { hash, len }
    }

    /// The combined 64-bit hash.
    pub const fn hash(&self) -> u64 {
        self.hash
    }

    /// Number of keys (images) in the corpus.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the corpus holds no keys.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Display for CorpusFingerprint {
    /// The on-disk rendering: `hash(hex, 16 digits) length`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x} {}", self.hash, self.len)
    }
}

/// One quarantined position of a scan: its corpus-global index, the
/// stable fault-kind tag, and the cause message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    index: usize,
    kind: String,
    message: String,
}

impl QuarantineRecord {
    /// The corpus-global index of the quarantined image.
    pub const fn index(&self) -> usize {
        self.index
    }

    /// The stable [`ScoreFault::kind`](crate::ScoreFault::kind) tag.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The human-readable cause (the fault's display, without the
    /// shard-local index prefix).
    pub fn message(&self) -> &str {
        &self.message
    }
}

/// One completed row of a checkpoint, in corpus-global index order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Row<'a> {
    /// A scored image: its global index and its row in the score columns.
    Scored {
        /// Corpus-global image index.
        index: usize,
        /// Row into [`ScanCheckpoint::columns`] /
        /// [`ScanCheckpoint::score_vector_at`].
        row: usize,
    },
    /// A quarantined position.
    Quarantined(&'a QuarantineRecord),
}

impl Row<'_> {
    /// The row's corpus-global index.
    pub(crate) fn index(&self) -> usize {
        match self {
            Row::Scored { index, .. } => *index,
            Row::Quarantined(rec) => rec.index,
        }
    }
}

/// Merged in-order walk over a checkpoint's scored and quarantined rows.
pub(crate) struct RowIter<'a> {
    checkpoint: &'a ScanCheckpoint,
    scored: usize,
    quarantined: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        let scored = self.checkpoint.scored_indices.get(self.scored).copied();
        let quarantined = self.checkpoint.quarantined.get(self.quarantined);
        let take_scored = match (scored, quarantined) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(index), Some(rec)) => index < rec.index,
        };
        if take_scored {
            let row = self.scored;
            self.scored += 1;
            Some(Row::Scored { index: scored.expect("checked above"), row })
        } else {
            self.quarantined += 1;
            Some(Row::Quarantined(&self.checkpoint.quarantined[self.quarantined - 1]))
        }
    }
}

/// One shard's progress through a corpus scan, in memory. See the
/// [module docs](self) for the on-disk format.
///
/// Rows are recorded by strictly ascending corpus-global index — the
/// natural order of a shard scan — which is what makes duplicate
/// detection and merge validation cheap.
#[derive(Debug, Clone)]
pub struct ScanCheckpoint {
    shard: ShardSpec,
    fingerprint: CorpusFingerprint,
    scored_indices: Vec<usize>,
    columns: ScoreColumns,
    quarantined: Vec<QuarantineRecord>,
    metrics: RegistrySnapshot,
}

impl ScanCheckpoint {
    /// An empty checkpoint for one shard of a fingerprinted corpus,
    /// recording scores of `methods`.
    pub fn new(shard: ShardSpec, fingerprint: CorpusFingerprint, methods: MethodSet) -> Self {
        Self {
            shard,
            fingerprint,
            scored_indices: Vec::new(),
            columns: ScoreColumns::new(methods),
            quarantined: Vec::new(),
            metrics: RegistrySnapshot::default(),
        }
    }

    /// The shard this checkpoint belongs to.
    pub const fn shard(&self) -> ShardSpec {
        self.shard
    }

    /// The fingerprint of the corpus being scanned.
    pub const fn fingerprint(&self) -> CorpusFingerprint {
        self.fingerprint
    }

    /// The methods whose scores the checkpoint records.
    pub const fn methods(&self) -> MethodSet {
        self.columns.methods()
    }

    /// Number of completed rows (scored + quarantined).
    pub fn done(&self) -> usize {
        self.scored_indices.len() + self.quarantined.len()
    }

    /// Corpus-global indices of the scored rows, ascending; row `r` of
    /// [`columns`](ScanCheckpoint::columns) belongs to
    /// `scored_indices()[r]`.
    pub fn scored_indices(&self) -> &[usize] {
        &self.scored_indices
    }

    /// The per-method score columns of the scored rows.
    pub const fn columns(&self) -> &ScoreColumns {
        &self.columns
    }

    /// The quarantined positions, ascending by index.
    pub fn quarantined(&self) -> &[QuarantineRecord] {
        &self.quarantined
    }

    /// The embedded telemetry snapshot (empty unless
    /// [`set_metrics`](ScanCheckpoint::set_metrics) was called).
    pub const fn metrics(&self) -> &RegistrySnapshot {
        &self.metrics
    }

    /// Embeds a telemetry snapshot, replacing any previous one.
    pub fn set_metrics(&mut self, snapshot: RegistrySnapshot) {
        self.metrics = snapshot;
    }

    /// The scored row `row` as a dense [`ScoreVector`] (untracked
    /// methods hold NaN).
    ///
    /// # Panics
    ///
    /// Panics if `row >= columns().len()`.
    pub fn score_vector_at(&self, row: usize) -> ScoreVector {
        let mut vector = ScoreVector::splat(f64::NAN);
        for id in self.methods().iter() {
            vector.set(id, self.columns.column(id)[row]);
        }
        vector
    }

    /// Merged in-order walk over scored and quarantined rows.
    pub(crate) fn rows(&self) -> RowIter<'_> {
        RowIter { checkpoint: self, scored: 0, quarantined: 0 }
    }

    /// The highest recorded index, if any row was recorded.
    fn last_index(&self) -> Option<usize> {
        let scored = self.scored_indices.last().copied();
        let quarantined = self.quarantined.last().map(|rec| rec.index);
        scored.into_iter().chain(quarantined).max()
    }

    /// Validates that `index` may be recorded next.
    fn check_next_index(&self, index: usize) -> Result<(), String> {
        if index >= self.fingerprint.len {
            return Err(format!(
                "row index {index} out of range for a corpus of {} images",
                self.fingerprint.len
            ));
        }
        if let Some(last) = self.last_index() {
            if index <= last {
                return Err(format!(
                    "row index {index} repeats or precedes index {last} \
                     (rows must be strictly ascending)"
                ));
            }
        }
        Ok(())
    }

    fn push_scored(&mut self, index: usize, scores: &ScoreVector) -> Result<(), String> {
        self.check_next_index(index)?;
        self.scored_indices.push(index);
        self.columns.push(scores);
        Ok(())
    }

    fn push_quarantine(&mut self, record: QuarantineRecord) -> Result<(), String> {
        self.check_next_index(record.index)?;
        self.quarantined.push(record);
        Ok(())
    }

    /// Replays a quarantine row taken from another checkpoint — the merge
    /// layer's counterpart of [`ScanCheckpoint::record`] for errors that
    /// only exist as persisted records.
    pub(crate) fn replay_quarantine(&mut self, record: QuarantineRecord) -> Result<(), String> {
        self.push_quarantine(record)
    }

    /// Records the outcome of corpus-global image `index`. Errors store
    /// their stable fault kind and cause message (newlines flattened to
    /// spaces so the record stays one line).
    ///
    /// # Errors
    ///
    /// [`DetectError::CheckpointMismatch`] when `index` is out of range
    /// for the corpus or not strictly greater than every recorded index.
    pub fn record(
        &mut self,
        index: usize,
        result: &Result<ScoreVector, ScoreError>,
    ) -> Result<(), DetectError> {
        let pushed = match result {
            Ok(scores) => self.push_scored(index, scores),
            Err(err) => {
                let message: String = err
                    .cause
                    .to_string()
                    .chars()
                    .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
                    .collect();
                self.push_quarantine(QuarantineRecord {
                    index,
                    kind: err.cause.kind().to_string(),
                    message,
                })
            }
        };
        pushed.map_err(|message| DetectError::CheckpointMismatch { message })
    }

    /// The checkpoint as it would have been written after only the first
    /// `done` completed rows — i.e. the state a crash after that many
    /// positions would have left on disk. Used to exercise resume paths
    /// deterministically (tests, recovery drills). The embedded metrics
    /// snapshot is cleared: a crashed process's final metrics are
    /// unknowable.
    pub fn prefix(&self, done: usize) -> Self {
        let mut out = Self::new(self.shard, self.fingerprint, self.methods());
        for row in self.rows().take(done) {
            let pushed = match row {
                Row::Scored { index, row } => out.push_scored(index, &self.score_vector_at(row)),
                Row::Quarantined(rec) => out.push_quarantine(rec.clone()),
            };
            pushed.expect("a prefix of ascending rows stays ascending");
        }
        out
    }

    /// Checks that this checkpoint can resume a scan over the given
    /// shard/corpus/methods, where `kept` lists the corpus-global
    /// indices the shard owns in scan order. A valid resumable
    /// checkpoint's rows are exactly the first [`done`](ScanCheckpoint::done)
    /// entries of `kept`.
    ///
    /// # Errors
    ///
    /// [`DetectError::CheckpointMismatch`] naming whatever differs.
    pub fn validate_resume(
        &self,
        shard: ShardSpec,
        fingerprint: CorpusFingerprint,
        methods: MethodSet,
        kept: &[usize],
    ) -> Result<(), DetectError> {
        let mismatch = |message: String| DetectError::CheckpointMismatch { message };
        if self.shard != shard {
            return Err(mismatch(format!(
                "checkpoint is for shard {}, scan is shard {shard}",
                self.shard
            )));
        }
        if self.fingerprint != fingerprint {
            return Err(mismatch(format!(
                "checkpoint corpus fingerprint [{}] does not match the scanned corpus [{}] — \
                 files were added, removed, or renamed since the checkpoint was written",
                self.fingerprint, fingerprint
            )));
        }
        if self.methods() != methods {
            return Err(mismatch(format!(
                "checkpoint records methods [{}], scan uses [{}]",
                method_names(self.methods()),
                method_names(methods)
            )));
        }
        if self.done() > kept.len() {
            return Err(mismatch(format!(
                "checkpoint records {} completed images but the shard owns only {}",
                self.done(),
                kept.len()
            )));
        }
        for (position, row) in self.rows().enumerate() {
            if row.index() != kept[position] {
                return Err(mismatch(format!(
                    "checkpoint row {position} is corpus index {}, the shard expects {}",
                    row.index(),
                    kept[position]
                )));
            }
        }
        Ok(())
    }

    /// Serialises to the v1 text format.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] when the checkpoint cannot be
    /// represented: no methods, or an embedded metric whose name/label
    /// tokens contain the format's delimiters.
    pub fn to_text(&self) -> Result<String, DetectError> {
        if self.methods().is_empty() {
            return Err(DetectError::InvalidConfig {
                message: "a checkpoint needs at least one method".into(),
            });
        }
        let mut out = String::from(HEADER);
        out.push('\n');
        let _ = writeln!(out, "shard {}", self.shard);
        let _ = writeln!(out, "corpus {}", self.fingerprint);
        let _ = writeln!(out, "methods {}", method_names(self.methods()));
        let _ = writeln!(out, "done {}", self.done());
        for (name, labels, value) in &self.metrics.counters {
            let _ = writeln!(out, "counter {} {value}", render_series(name, labels)?);
        }
        for (name, labels, value) in &self.metrics.gauges {
            let _ = writeln!(out, "gauge {} {value:.17e}", render_series(name, labels)?);
        }
        for (name, labels, snapshot) in &self.metrics.histograms {
            let _ = write!(
                out,
                "hist {} {} {:.17e} {:.17e} ",
                render_series(name, labels)?,
                snapshot.count(),
                snapshot.sum(),
                snapshot.sum_sq()
            );
            push_csv(&mut out, snapshot.bounds().iter().map(|b| format!("{b:.17e}")));
            out.push(' ');
            push_csv(&mut out, snapshot.bucket_counts().iter().map(u64::to_string));
            out.push('\n');
        }
        for row in self.rows() {
            match row {
                Row::Scored { index, row } => {
                    let _ = write!(out, "score {index}");
                    for id in self.methods().iter() {
                        let _ = write!(out, " {:.17e}", self.columns.column(id)[row]);
                    }
                    out.push('\n');
                }
                Row::Quarantined(rec) => {
                    let _ = write!(out, "quarantine {} {}", rec.index, rec.kind);
                    if !rec.message.is_empty() {
                        let _ = write!(out, " {}", rec.message);
                    }
                    out.push('\n');
                }
            }
        }
        Ok(out)
    }

    /// Parses the v1 text format, strictly: wrong or truncated headers,
    /// malformed lines, unknown record or fault kinds, out-of-order or
    /// out-of-range indices, and a `done` count disagreeing with the
    /// rows actually present (a file truncated mid-write) are all typed
    /// errors with the offending line number.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] as described above.
    pub fn from_text(text: &str) -> Result<Self, DetectError> {
        let mut body = textfmt::parse_body(text, HEADER)?;
        let mut required = |keyword: &str| -> Result<(usize, String), DetectError> {
            let (lineno, line) = body.next().ok_or_else(|| DetectError::InvalidConfig {
                message: format!("truncated checkpoint: missing `{keyword}` line"),
            })?;
            let (key, rest) = split_keyword(line);
            if key != keyword {
                return Err(textfmt::line_error(
                    lineno,
                    format!("expected a `{keyword}` line, got {line:?}"),
                ));
            }
            Ok((lineno, rest.to_string()))
        };

        let (lineno, rest) = required("shard")?;
        let shard = ShardSpec::parse(&rest)
            .map_err(|_| textfmt::line_error(lineno, format!("malformed shard spec {rest:?}")))?;

        let (lineno, rest) = required("corpus")?;
        let fingerprint = (|| {
            let (hash, len) = rest.split_once(' ')?;
            Some(CorpusFingerprint {
                hash: u64::from_str_radix(hash, 16).ok()?,
                len: len.trim().parse().ok()?,
            })
        })()
        .ok_or_else(|| {
            textfmt::line_error(lineno, format!("malformed corpus fingerprint {rest:?}"))
        })?;

        let (lineno, rest) = required("methods")?;
        let mut methods = MethodSet::empty();
        if rest.is_empty() {
            return Err(textfmt::line_error(lineno, "empty methods list"));
        }
        for name in rest.split(',') {
            let id = MethodId::from_name(name.trim()).ok_or_else(|| {
                textfmt::line_error(lineno, format!("unknown detection method {name:?}"))
            })?;
            if !methods.insert(id) {
                return Err(textfmt::line_error(lineno, format!("duplicate method {name:?}")));
            }
        }

        let (lineno, rest) = required("done")?;
        let declared_done: usize = rest
            .parse()
            .map_err(|_| textfmt::line_error(lineno, format!("malformed done count {rest:?}")))?;

        let mut checkpoint = Self::new(shard, fingerprint, methods);
        let mut metrics = RegistrySnapshot::default();
        for (lineno, line) in body {
            let (key, rest) = split_keyword(line);
            let bad = |message: String| textfmt::line_error(lineno, message);
            match key {
                "counter" => {
                    let (series, value) = split_keyword(rest);
                    let (name, labels) = parse_series(lineno, series)?;
                    let value = value
                        .parse()
                        .map_err(|_| bad(format!("malformed counter value {value:?}")))?;
                    metrics.counters.push((name, labels, value));
                }
                "gauge" => {
                    let (series, value) = split_keyword(rest);
                    let (name, labels) = parse_series(lineno, series)?;
                    let value = value
                        .parse()
                        .map_err(|_| bad(format!("malformed gauge value {value:?}")))?;
                    metrics.gauges.push((name, labels, value));
                }
                "hist" => {
                    let fields: Vec<&str> = rest.split_whitespace().collect();
                    let &[series, count, sum, sum_sq, bounds, buckets] = fields.as_slice() else {
                        return Err(bad(format!(
                            "expected `hist series count sum sum_sq bounds buckets`, got {line:?}"
                        )));
                    };
                    let (name, labels) = parse_series(lineno, series)?;
                    let snapshot = (|| {
                        HistogramSnapshot::from_parts(
                            bounds.split(',').map(str::parse).collect::<Result<_, _>>().ok()?,
                            buckets.split(',').map(str::parse).collect::<Result<_, _>>().ok()?,
                            count.parse().ok()?,
                            sum.parse().ok()?,
                            sum_sq.parse().ok()?,
                        )
                    })()
                    .ok_or_else(|| bad(format!("inconsistent histogram state {rest:?}")))?;
                    metrics.histograms.push((name, labels, snapshot));
                }
                "score" => {
                    let mut tokens = rest.split_whitespace();
                    let index: usize = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad(format!("malformed score row {line:?}")))?;
                    let mut scores = ScoreVector::splat(f64::NAN);
                    for id in methods.iter() {
                        let value: f64 =
                            tokens.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                                bad(format!("score row holds fewer than {} values", methods.len()))
                            })?;
                        scores.set(id, value);
                    }
                    if tokens.next().is_some() {
                        return Err(bad(format!(
                            "score row holds more than {} values",
                            methods.len()
                        )));
                    }
                    checkpoint.push_scored(index, &scores).map_err(bad)?;
                }
                "quarantine" => {
                    let (index, rest) = split_keyword(rest);
                    let index: usize = index
                        .parse()
                        .map_err(|_| bad(format!("malformed quarantine row {line:?}")))?;
                    let (kind, message) = split_keyword(rest);
                    if !ScoreFault::KINDS.contains(&kind) {
                        return Err(bad(format!("unknown fault kind {kind:?}")));
                    }
                    checkpoint
                        .push_quarantine(QuarantineRecord {
                            index,
                            kind: kind.to_string(),
                            message: message.to_string(),
                        })
                        .map_err(bad)?;
                }
                other => return Err(bad(format!("unknown record kind {other:?}"))),
            }
        }
        if checkpoint.done() != declared_done {
            return Err(DetectError::InvalidConfig {
                message: format!(
                    "checkpoint declares {declared_done} completed rows but holds {} — \
                     the file was truncated or tampered with",
                    checkpoint.done()
                ),
            });
        }
        metrics.counters.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        metrics.gauges.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        metrics.histograms.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        checkpoint.metrics = metrics;
        Ok(checkpoint)
    }

    /// Writes the checkpoint to a file atomically (temp file + rename) —
    /// a crash mid-write leaves the previous checkpoint intact, so a
    /// resume loses at most the rows recorded since the last save.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for serialisation or I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DetectError> {
        textfmt::write_atomic(path, &self.to_text()?, "checkpoint")
    }

    /// Reads a checkpoint from a file.
    ///
    /// # Errors
    ///
    /// [`DetectError::InvalidConfig`] for I/O or parse failures.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, DetectError> {
        Self::from_text(&textfmt::read(path, "checkpoint")?)
    }
}

/// Comma-joined method names in canonical order — the `methods` line
/// payload and the rendering merge errors use.
pub(crate) fn method_names(methods: MethodSet) -> String {
    methods.iter().map(MethodId::name).collect::<Vec<_>>().join(",")
}

/// Splits a line into its first whitespace-separated token and the
/// trimmed remainder (empty when there is none).
fn split_keyword(line: &str) -> (&str, &str) {
    match line.split_once(char::is_whitespace) {
        Some((key, rest)) => (key, rest.trim()),
        None => (line, ""),
    }
}

/// Appends `items` comma-joined; an empty sequence renders as `-` so the
/// line keeps its field count.
fn push_csv(out: &mut String, items: impl Iterator<Item = String>) {
    let mut any = false;
    for (position, item) in items.enumerate() {
        if position > 0 {
            out.push(',');
        }
        out.push_str(&item);
        any = true;
    }
    if !any {
        out.push('-');
    }
}

/// Renders a metric series as `name` or `name{k=v,…}`, refusing tokens
/// that would collide with the format's delimiters.
fn render_series(name: &str, labels: &Labels) -> Result<String, DetectError> {
    let check = |token: &str| -> Result<(), DetectError> {
        let clash = |c: char| c.is_whitespace() || matches!(c, ',' | '=' | '{' | '}');
        if token.is_empty() || token.chars().any(clash) {
            return Err(DetectError::InvalidConfig {
                message: format!(
                    "metric series token {token:?} cannot be embedded in a checkpoint"
                ),
            });
        }
        Ok(())
    };
    check(name)?;
    if labels.is_empty() {
        return Ok(name.to_string());
    }
    let mut out = format!("{name}{{");
    for (position, (key, value)) in labels.iter().enumerate() {
        check(key)?;
        check(value)?;
        if position > 0 {
            out.push(',');
        }
        let _ = write!(out, "{key}={value}");
    }
    out.push('}');
    Ok(out)
}

/// Parses `name` or `name{k=v,…}` back into a `(name, sorted labels)`
/// key.
fn parse_series(lineno: usize, token: &str) -> Result<(String, Labels), DetectError> {
    let bad = || textfmt::line_error(lineno, format!("malformed metric series {token:?}"));
    match token.split_once('{') {
        None => Ok((token.to_string(), Labels::new())),
        Some((name, rest)) => {
            let inner = rest.strip_suffix('}').ok_or_else(bad)?;
            let mut labels = Labels::new();
            for pair in inner.split(',') {
                let (key, value) = pair.split_once('=').ok_or_else(bad)?;
                labels.push((key.to_string(), value.to_string()));
            }
            labels.sort();
            Ok((name.to_string(), labels))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(n: usize) -> CorpusFingerprint {
        CorpusFingerprint::of_keys((0..n).map(|i| format!("img-{i:05}")))
    }

    fn methods() -> MethodSet {
        MethodSet::of(&[MethodId::ScalingMse, MethodId::Csp])
    }

    fn scores(mse: f64, csp: f64) -> ScoreVector {
        let mut v = ScoreVector::splat(f64::NAN);
        v.set(MethodId::ScalingMse, mse);
        v.set(MethodId::Csp, csp);
        v
    }

    /// A populated checkpoint: scores at 1 and 5, a quarantine at 3.
    fn sample() -> ScanCheckpoint {
        let mut ckpt = ScanCheckpoint::new(ShardSpec::full(), fingerprint(8), methods());
        ckpt.record(1, &Ok(scores(72.4, 2.0))).unwrap();
        ckpt.record(
            3,
            &Err(ScoreError::new(ScoreFault::Unreadable {
                message: "cannot read x.bmp: truncated".into(),
            })),
        )
        .unwrap();
        ckpt.record(5, &Ok(scores(1.5, 0.0))).unwrap();
        ckpt
    }

    #[test]
    fn fingerprint_is_order_sensitive_and_length_aware() {
        let a = CorpusFingerprint::of_keys(["x", "y"]);
        let b = CorpusFingerprint::of_keys(["y", "x"]);
        let c = CorpusFingerprint::of_keys(["x", "y", "z"]);
        assert_ne!(a, b, "order matters");
        assert_ne!(a, c);
        assert_eq!(a, CorpusFingerprint::of_keys(["x", "y"]));
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        assert!(CorpusFingerprint::of_keys(Vec::<String>::new()).is_empty());
        assert!(a.to_string().contains(&format!("{:016x}", a.hash())));
    }

    #[test]
    fn roundtrip_preserves_rows_counts_and_exact_scores() {
        let ckpt = sample();
        assert_eq!(ckpt.done(), 3);
        let text = ckpt.to_text().unwrap();
        let parsed = ScanCheckpoint::from_text(&text).unwrap();
        assert_eq!(parsed.to_text().unwrap(), text, "serialisation is a fixed point");
        assert_eq!(parsed.shard(), ckpt.shard());
        assert_eq!(parsed.fingerprint(), ckpt.fingerprint());
        assert_eq!(parsed.methods(), ckpt.methods());
        assert_eq!(parsed.scored_indices(), &[1, 5]);
        assert_eq!(parsed.columns().column(MethodId::ScalingMse), &[72.4, 1.5]);
        assert_eq!(parsed.columns().column(MethodId::Csp), &[2.0, 0.0]);
        assert_eq!(parsed.quarantined().len(), 1);
        let rec = &parsed.quarantined()[0];
        assert_eq!((rec.index(), rec.kind()), (3, "unreadable"));
        assert_eq!(rec.message(), "unreadable source item: cannot read x.bmp: truncated");
        assert_eq!(parsed.score_vector_at(1).get(MethodId::ScalingMse), 1.5);
        assert!(parsed.score_vector_at(1).get(MethodId::FilteringMse).is_nan());
    }

    #[test]
    fn roundtrip_preserves_awkward_f64s_exactly() {
        let mut ckpt = ScanCheckpoint::new(ShardSpec::full(), fingerprint(4), methods());
        // 17 significant digits on purpose: the round trip must keep
        // every bit of a value with no short decimal form.
        #[allow(clippy::excessive_precision)]
        let awkward = 1_714.960_000_000_000_1_f64;
        ckpt.record(0, &Ok(scores(awkward, f64::MIN_POSITIVE))).unwrap();
        let parsed = ScanCheckpoint::from_text(&ckpt.to_text().unwrap()).unwrap();
        assert_eq!(parsed.columns().column(MethodId::ScalingMse), &[awkward]);
        assert_eq!(parsed.columns().column(MethodId::Csp), &[f64::MIN_POSITIVE]);
    }

    /// One fault of each kind, by its tag.
    fn fault_of_kind(kind: &str) -> ScoreFault {
        match kind {
            "degenerate-dimensions" => ScoreFault::DegenerateDimensions { width: 0, height: 4 },
            "non-finite-pixel" => ScoreFault::NonFinitePixel { sample: 7 },
            "below-minimum-size" => ScoreFault::BelowMinimumSize {
                width: 2,
                height: 2,
                required: 8,
                requirement: "SSIM window",
            },
            "non-finite-score" => ScoreFault::NonFiniteScore { score: f64::NAN },
            "detect" => {
                ScoreFault::Detect(DetectError::InvalidConfig { message: "multi\nline".into() })
            }
            "panic" => ScoreFault::Panicked { message: "boom".into() },
            "injected" => ScoreFault::Injected,
            "unreadable" => ScoreFault::Unreadable { message: "gone".into() },
            "unsupported-format" => ScoreFault::UnsupportedFormat { message: "no magic".into() },
            other => panic!("no sample fault for kind {other:?}"),
        }
    }

    #[test]
    fn every_fault_kind_roundtrips() {
        let kinds = ScoreFault::KINDS;
        let mut ckpt = ScanCheckpoint::new(ShardSpec::full(), fingerprint(kinds.len()), methods());
        for (index, kind) in kinds.into_iter().enumerate() {
            let fault = fault_of_kind(kind);
            assert_eq!(fault.kind(), kind);
            ckpt.record(index, &Err(ScoreError::new(fault))).unwrap();
        }
        let parsed = ScanCheckpoint::from_text(&ckpt.to_text().unwrap()).unwrap();
        let parsed_kinds: Vec<&str> =
            parsed.quarantined().iter().map(QuarantineRecord::kind).collect();
        assert_eq!(parsed_kinds, kinds);
        assert_eq!(
            parsed.quarantined()[4].message(),
            "invalid config: multi line",
            "newlines flatten to spaces"
        );
    }

    #[test]
    fn metrics_roundtrip_with_exact_moments() {
        let registry = decamouflage_telemetry::registry::MetricsRegistry::new();
        registry.counter("decam_scored_total", &[("shard", "2of3")]).add(5);
        registry.gauge("decam_peak", &[]).set(3.5);
        let h = registry.histogram("decam_lat_seconds", &[("stage", "decode")]);
        h.record(0.0034);
        h.record(0.21);
        let snapshot = registry.snapshot();

        let mut ckpt = sample();
        ckpt.set_metrics(snapshot.clone());
        let parsed = ScanCheckpoint::from_text(&ckpt.to_text().unwrap()).unwrap();
        assert_eq!(parsed.metrics(), &snapshot, "embedded snapshot survives byte-exactly");
    }

    #[test]
    fn unembeddable_metric_tokens_are_write_errors() {
        let mut ckpt = sample();
        let mut snapshot = RegistrySnapshot::default();
        snapshot.counters.push(("bad name".into(), Labels::new(), 1));
        ckpt.set_metrics(snapshot);
        let err = ckpt.to_text().unwrap_err();
        assert!(err.to_string().contains("cannot be embedded"), "{err}");
    }

    #[test]
    fn wrong_version_and_garbage_headers_are_rejected() {
        for text in ["", "decamouflage-checkpoint v2\nshard 1/1\n", "\u{0}\u{1}binary junk\n"] {
            let err = ScanCheckpoint::from_text(text).unwrap_err();
            assert!(matches!(err, DetectError::InvalidConfig { .. }));
            assert!(err.to_string().contains("expected header"), "{text:?}: {err}");
        }
    }

    #[test]
    fn truncated_files_are_rejected() {
        let full = sample().to_text().unwrap();
        // Cut after the header region: drops score/quarantine rows, so the
        // declared `done` count no longer matches.
        let upto_rows = full.find("score ").unwrap();
        let err = ScanCheckpoint::from_text(&full[..upto_rows]).unwrap_err();
        assert!(matches!(err, DetectError::InvalidConfig { .. }));
        assert!(err.to_string().contains("declares 3 completed rows but holds 0"), "{err}");

        // Cut mid-header: a required line is missing entirely.
        let upto_methods = full.find("methods").unwrap();
        let err = ScanCheckpoint::from_text(&full[..upto_methods]).unwrap_err();
        assert!(err.to_string().contains("missing `methods` line"), "{err}");

        // Cut mid-row: the final score row loses its last value. (A cut
        // inside a value can survive parsing — "1.23" is a valid prefix of
        // "1.2345e0" — which is exactly why checkpoints are written
        // atomically and carry a `done` count as a second guard.)
        let after_last_value = full.rfind(' ').unwrap() + 1;
        let err = ScanCheckpoint::from_text(&full[..after_last_value]).unwrap_err();
        assert!(err.to_string().contains("score row holds fewer"), "{err}");
    }

    #[test]
    fn duplicate_and_out_of_order_indices_are_rejected_with_line_numbers() {
        let full = sample().to_text().unwrap();
        let duplicated = format!("{full}score 5 1.0e0 2.0e0\n");
        let fixed = duplicated.replace("done 3", "done 4");
        let err = ScanCheckpoint::from_text(&fixed).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("line 9"), "{message}");
        assert!(message.contains("repeats or precedes"), "{message}");

        let mut ckpt = sample();
        let err = ckpt.record(2, &Ok(scores(0.0, 0.0))).unwrap_err();
        assert!(matches!(err, DetectError::CheckpointMismatch { .. }), "{err}");
        let err = ckpt.record(100, &Ok(scores(0.0, 0.0))).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn malformed_bodies_are_rejected_with_line_numbers() {
        let head = |rest: &str| format!("{HEADER}\n{rest}");
        let cases = [
            ("shard x/y\n", "malformed shard spec"),
            ("banana 1/1\n", "expected a `shard` line"),
            ("shard 1/1\ncorpus zz 4\n", "malformed corpus fingerprint"),
            ("shard 1/1\ncorpus 00000000000000aa 4\nmethods nope/nope\n", "unknown detection method"),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse,scaling/mse\n",
                "duplicate method",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone x\n",
                "malformed done count",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 0\nwat 1\n",
                "unknown record kind",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 1\nscore 0\n",
                "fewer than 1 values",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 1\nscore 0 1.0 2.0\n",
                "more than 1 values",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 1\nquarantine 0 gremlin lost\n",
                "unknown fault kind",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 1\nscore 9 1.0\n",
                "out of range",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 0\ncounter decam{x 1\n",
                "malformed metric series",
            ),
            (
                "shard 1/1\ncorpus 00000000000000aa 4\nmethods scaling/mse\ndone 0\nhist decam 1 0.5 0.25 - -\n",
                "inconsistent histogram state",
            ),
        ];
        for (body, needle) in cases {
            let err = ScanCheckpoint::from_text(&head(body)).unwrap_err();
            let message = err.to_string();
            assert!(matches!(err, DetectError::InvalidConfig { .. }), "{body:?}");
            assert!(message.contains(needle), "{body:?}: got {message:?}");
            assert!(message.contains("line "), "{body:?}: wants a line number, got {message:?}");
        }
    }

    #[test]
    fn validate_resume_refuses_mismatched_scans() {
        let ckpt = sample(); // full-shard checkpoint over fingerprint(8), rows 1,3,5
        let kept: Vec<usize> = (0..8).collect();
        ckpt.validate_resume(ShardSpec::full(), fingerprint(8), methods(), &kept[1..])
            .expect_err("kept list not matching the recorded prefix must refuse");
        ckpt.validate_resume(ShardSpec::full(), fingerprint(9), methods(), &kept)
            .expect_err("wrong corpus fingerprint must refuse");
        ckpt.validate_resume(ShardSpec::new(0, 2).unwrap(), fingerprint(8), methods(), &kept)
            .expect_err("wrong shard must refuse");
        ckpt.validate_resume(
            ShardSpec::full(),
            fingerprint(8),
            MethodSet::of(&[MethodId::Csp]),
            &kept,
        )
        .expect_err("different method set must refuse");
        let err = ckpt
            .validate_resume(ShardSpec::full(), fingerprint(8), methods(), &[1, 3])
            .unwrap_err();
        assert!(matches!(err, DetectError::CheckpointMismatch { .. }));
        assert!(err.to_string().contains("owns only 2"), "{err}");

        // The happy path: a kept list whose prefix is exactly the rows.
        ckpt.validate_resume(ShardSpec::full(), fingerprint(8), methods(), &[1, 3, 5, 7]).unwrap();
    }

    #[test]
    fn prefix_reconstructs_the_mid_scan_state() {
        let ckpt = sample();
        let mid = ckpt.prefix(2);
        assert_eq!(mid.done(), 2);
        assert_eq!(mid.scored_indices(), &[1]);
        assert_eq!(mid.quarantined()[0].index(), 3);
        assert_eq!(mid.columns().column(MethodId::ScalingMse), &[72.4]);
        assert!(mid.metrics().is_empty(), "a crash never persists final metrics");
        assert_eq!(ckpt.prefix(ckpt.done()).to_text().unwrap(), ckpt.to_text().unwrap());
        assert_eq!(ckpt.prefix(0).done(), 0);
    }

    #[test]
    fn empty_methods_cannot_serialise() {
        let ckpt = ScanCheckpoint::new(ShardSpec::full(), fingerprint(1), MethodSet::empty());
        assert!(ckpt.to_text().is_err());
    }

    #[test]
    fn file_roundtrip_is_atomic_and_typed() {
        let dir = std::env::temp_dir().join(format!("decam-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shard.ckpt");
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let loaded = ScanCheckpoint::load(&path).unwrap();
        assert_eq!(loaded.to_text().unwrap(), ckpt.to_text().unwrap());
        // Overwrite (the per-chunk save pattern) leaves no temp droppings.
        ckpt.save(&path).unwrap();
        assert!(!std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().contains(".tmp.")));
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(ScanCheckpoint::load(&path).is_err(), "missing file is a typed error");
    }
}
