//! Series storage: per-field columns with a mutable head and sealed blocks.
//!
//! A *series* is the unit of storage: one measurement plus one complete tag
//! set. Values are stored columnar per field. Each [`Column`] is layered:
//!
//! * a **mutable head** — `(timestamp, value)` sorted ascending, unique,
//!   last-write-wins on duplicate timestamps (InfluxDB behaviour). Live
//!   collector appends in time order are O(1) amortized; out-of-order
//!   backfill pays a binary-search insert.
//! * zero or more **sealed blocks** — immutable compressed runs
//!   ([`lms_tsm::SealedBlock`]) produced when a flush drains the head, and
//!   re-installed from segment files after a restart.
//!
//! Reads merge the layers with last-write-wins: the head outranks every
//! block, and among blocks the higher seal generation wins. Overlapping
//! versions of a timestamp may therefore coexist until compaction rewrites
//! them — [`Column::len`] counts stored *versions*, while reads always see
//! exactly one value per timestamp. A retention `floor` clamps visibility
//! for blocks that straddle the retention cutoff: expired points inside a
//! still-live block are hidden immediately and physically dropped when the
//! block's file expires or is compacted.

use lms_lineproto::FieldValue;
use lms_tsm::{SealedBlock, SeriesId};
use std::sync::Arc;

/// Time index over a column's sealed blocks: block positions sorted by
/// `min_ts` plus a running maximum of `max_ts`, so a range query finds its
/// overlapping blocks by binary search + a bounded backward walk instead of
/// testing every block of the column. Blocks arrive from flushes in time
/// order, so the walk almost always stops after one step past the range —
/// and so a new block almost always extends the index at its end.
#[derive(Debug, Clone, Default, PartialEq)]
struct TimeIndex {
    /// `(index into sealed, max max_ts over this and every earlier entry)`,
    /// sorted ascending by block `min_ts` (ties in `sealed` order).
    entries: Vec<(u32, i64)>,
}

impl TimeIndex {
    fn build(sealed: &[Arc<SealedBlock>]) -> TimeIndex {
        let mut entries: Vec<(u32, i64)> =
            sealed.iter().enumerate().map(|(i, b)| (i as u32, b.max_ts)).collect();
        entries.sort_by_key(|&(i, _)| sealed[i as usize].min_ts);
        let mut running = i64::MIN;
        for (_, max_ts) in &mut entries {
            running = running.max(*max_ts);
            *max_ts = running;
        }
        TimeIndex { entries }
    }

    /// Indexes the block just pushed onto `sealed`. One that starts at or
    /// after every indexed block — each live flush — appends in O(1);
    /// backfill re-sorts.
    fn push_last(&mut self, sealed: &[Arc<SealedBlock>]) {
        let i = sealed.len() - 1;
        let block = &sealed[i];
        match self.entries.last() {
            Some(&(last, _)) if sealed[last as usize].min_ts > block.min_ts => {
                *self = TimeIndex::build(sealed);
            }
            last => {
                let running = last.map_or(i64::MIN, |&(_, m)| m).max(block.max_ts);
                self.entries.push((i as u32, running));
            }
        }
    }

    /// Indices (into `sealed`) of blocks overlapping `[start, end)`, in
    /// ascending `min_ts` order.
    fn overlapping(&self, sealed: &[Arc<SealedBlock>], start: i64, end: i64) -> Vec<usize> {
        // Candidates: blocks with min_ts < end (a sorted prefix of the index).
        let k = self.entries.partition_point(|&(i, _)| sealed[i as usize].min_ts < end);
        let mut out = Vec::new();
        for &(i, prefix_max) in self.entries[..k].iter().rev() {
            if prefix_max < start {
                break; // nothing earlier can reach `start` either
            }
            if sealed[i as usize].max_ts >= start {
                out.push(i as usize);
            }
        }
        out.reverse();
        out
    }
}

/// Last-write-wins merge of `(timestamp, generation, value)` versions:
/// sorts by `(timestamp, generation)` and keeps the highest-generation
/// version of each timestamp, returning `(timestamp, value)` ascending.
///
/// [`Column::points_in`] uses it to merge the mutable head (generation
/// `u64::MAX`) with sealed block generations. The cluster read path keeps
/// the same rule with the node's part index as the generation: of a
/// series' replica copies, the later part's row wins.
pub fn lww_dedup<V>(mut versions: Vec<(i64, u64, V)>) -> Vec<(i64, V)> {
    versions.sort_by_key(|&(t, g, _)| (t, g));
    let mut out: Vec<(i64, V)> = Vec::with_capacity(versions.len());
    for (t, _, v) in versions {
        match out.last_mut() {
            Some(last) if last.0 == t => last.1 = v,
            _ => out.push((t, v)),
        }
    }
    out
}

/// One field's column: mutable head plus sealed compressed history.
#[derive(Debug, Clone, Default)]
pub struct Column {
    /// `(timestamp ns, value)` sorted ascending by timestamp, unique.
    head: Vec<(i64, FieldValue)>,
    /// Immutable compressed runs, ascending seal generation.
    sealed: Vec<Arc<SealedBlock>>,
    /// Points below this timestamp are invisible (retention clamp for
    /// partially-expired blocks). `0` (the default) hides nothing that a
    /// fresh column could contain; negative timestamps predate any real
    /// scrape but are still representable, so the floor starts at `i64::MIN`
    /// semantically — we store the raw cutoff and only raise it.
    floor: Option<i64>,
    /// Binary-search index over `sealed`, kept in step with it.
    index: TimeIndex,
}

/// The planned read of one column range: blocks whose pre-aggregated
/// summaries answer the query without decoding, plus the merged residual
/// points (head + decoded straddling blocks).
pub struct Scan<'a> {
    /// Fully-covered, unshadowed blocks — consume `block.summary()`
    /// instead of decoding. For windowed scans each block fits entirely
    /// inside one window.
    pub summarized: Vec<&'a SealedBlock>,
    /// Everything else, merged with last-write-wins. Timestamps covered by
    /// `summarized` blocks never appear here.
    pub residual: Points<'a>,
}

/// Iterator over the visible points of a column range.
///
/// The borrowed variant serves the common all-in-head case without
/// allocating; the merged variant materializes the last-write-wins merge of
/// head and overlapping sealed blocks.
pub enum Points<'a> {
    /// Fast path: every visible point lives in the mutable head.
    Head(std::slice::Iter<'a, (i64, FieldValue)>),
    /// Merge path: decoded blocks + head, deduplicated.
    Merged(std::vec::IntoIter<(i64, FieldValue)>),
}

impl Iterator for Points<'_> {
    type Item = (i64, FieldValue);

    fn next(&mut self) -> Option<(i64, FieldValue)> {
        match self {
            Points::Head(it) => it.next().cloned(),
            Points::Merged(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Points::Head(it) => it.size_hint(),
            Points::Merged(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for Points<'_> {}

impl Column {
    /// Inserts a point into the head, replacing any existing head value at
    /// the same timestamp. A sealed version of the timestamp may coexist;
    /// reads resolve to this newer value.
    pub fn insert(&mut self, ts: i64, value: FieldValue) {
        match self.head.last() {
            Some(&(last, _)) if last < ts => self.head.push((ts, value)),
            _ => match self.head.binary_search_by_key(&ts, |&(t, _)| t) {
                Ok(i) => self.head[i].1 = value,
                Err(i) => self.head.insert(i, (ts, value)),
            },
        }
    }

    /// True when [`insert`](Column::insert) appends `ts` after the head.
    pub fn appends(&self, ts: i64) -> bool {
        self.head.last().is_none_or(|&(last, _)| last < ts)
    }

    /// Inserts a run of points sorted ascending by timestamp (duplicates
    /// allowed; later entries win, as do run entries over existing head
    /// values — the run is "newer"). Equivalent to per-point [`insert`]
    /// calls but with one splice-point search and one tail merge for the
    /// whole run, so a batched hot-series write is O(run + overlap) rather
    /// than O(run · log head).
    ///
    /// [`insert`]: Column::insert
    pub fn insert_many(&mut self, run: impl IntoIterator<Item = (i64, FieldValue)>) {
        let mut ri = run.into_iter().peekable();
        let Some(&(first, _)) = ri.peek() else { return };
        fn push_lww(head: &mut Vec<(i64, FieldValue)>, ts: i64, value: FieldValue) {
            match head.last_mut() {
                Some(last) if last.0 == ts => last.1 = value,
                _ => head.push((ts, value)),
            }
        }
        // Merge the run with the head's tail from the run's first
        // timestamp on; the prefix below it is untouched.
        let split = self.head.partition_point(|&(t, _)| t < first);
        let tail = self.head.split_off(split);
        self.head.reserve(tail.len() + ri.size_hint().0);
        let mut ti = tail.into_iter().peekable();
        loop {
            let from_run = match (ti.peek(), ri.peek()) {
                (None, None) => break,
                (Some(&(t, _)), Some(&(r, _))) => {
                    if t == r {
                        ti.next(); // run outranks the existing value
                    }
                    t >= r
                }
                (tail_next, _) => tail_next.is_none(),
            };
            let (ts, v) = if from_run { ri.next() } else { ti.next() }.unwrap();
            push_lww(&mut self.head, ts, v);
        }
    }

    /// The visible points in `[start, end)`, merged across head and sealed
    /// blocks with last-write-wins.
    pub fn points_in(&self, start: i64, end: i64) -> Points<'_> {
        self.scan(start, end, None, false).residual
    }

    /// Plans the read of `[start, end)`: overlapping blocks are found by
    /// binary search on the time index; with `use_summaries`, blocks that
    /// are fully covered by the range, unshadowed by the head or by any
    /// other overlapping block, and (for windowed scans) contained in a
    /// single `window`-aligned bucket are answered from their pre-aggregated
    /// summaries. The rest decodes and merges with the head under
    /// last-write-wins.
    ///
    /// Correctness of the split: a summarized block is unshadowed, so no
    /// newer version of any of its timestamps exists anywhere — the
    /// residual merge and the summary cover disjoint timestamp sets whose
    /// union is exactly the visible range.
    pub fn scan(&self, start: i64, end: i64, window: Option<i64>, use_summaries: bool) -> Scan<'_> {
        let start = match self.floor {
            Some(floor) => start.max(floor),
            None => start,
        };
        if start >= end {
            return Scan { summarized: Vec::new(), residual: Points::Merged(Vec::new().into_iter()) };
        }
        let lo = self.head.partition_point(|&(t, _)| t < start);
        let hi = self.head.partition_point(|&(t, _)| t < end);
        let overlapping = self.index.overlapping(&self.sealed, start, end);
        if overlapping.is_empty() {
            return Scan { summarized: Vec::new(), residual: Points::Head(self.head[lo..hi].iter()) };
        }
        let head = &self.head[lo..hi];
        let mut summarized: Vec<&SealedBlock> = Vec::new();
        let mut decode: Vec<&Arc<SealedBlock>> = Vec::new();
        // Running max of max_ts over the blocks before `pos` — `overlapping`
        // is min_ts-ascending, so an earlier block intersects b's span iff
        // this maximum reaches b.min_ts, and a later block intersects iff
        // the *next* one starts at or before b.max_ts.
        let mut prev_max = i64::MIN;
        for (pos, &i) in overlapping.iter().enumerate() {
            let b = &self.sealed[i];
            let ok = use_summaries
                && b.summary().is_some()
                // Fully covered by the (floor-clamped) range.
                && b.min_ts >= start
                && b.max_ts < end
                // Inside one window, when windowed.
                && window.is_none_or(|w| b.min_ts.div_euclid(w) == b.max_ts.div_euclid(w))
                // No head point shadows (or extends into) the block's span.
                && {
                    let h_lo = head.partition_point(|&(t, _)| t < b.min_ts);
                    head.get(h_lo).is_none_or(|&(t, _)| t > b.max_ts)
                }
                // No other overlapping block shares any of the span.
                && prev_max < b.min_ts
                && (pos + 1 == overlapping.len()
                    || self.sealed[overlapping[pos + 1]].min_ts > b.max_ts);
            prev_max = prev_max.max(b.max_ts);
            if ok {
                summarized.push(b);
            } else {
                decode.push(b);
            }
        }
        // Tag every version with its generation (head outranks all blocks),
        // sort by (ts, gen), keep the newest version per timestamp.
        let mut versions: Vec<(i64, u64, FieldValue)> = Vec::new();
        for b in decode {
            versions.extend(
                b.decode()
                    .into_iter()
                    .filter(|&(t, _)| t >= start && t < end)
                    .map(|(t, v)| (t, b.gen, v)),
            );
        }
        versions.extend(head.iter().map(|(t, v)| (*t, u64::MAX, v.clone())));
        Scan { summarized, residual: Points::Merged(lww_dedup(versions).into_iter()) }
    }

    /// Total stored points of sealed blocks overlapping `[start, end)`
    /// (an upper bound on decode work — found via the time index, cheap).
    pub fn sealed_points_in(&self, start: i64, end: i64) -> usize {
        let start = match self.floor {
            Some(floor) => start.max(floor),
            None => start,
        };
        if start >= end {
            return 0;
        }
        self.index
            .overlapping(&self.sealed, start, end)
            .into_iter()
            .map(|i| self.sealed[i].count as usize)
            .sum()
    }

    /// All visible points (merged).
    pub fn iter_all(&self) -> Points<'_> {
        self.points_in(i64::MIN, i64::MAX)
    }

    /// A lower bound on the first visible timestamp (exact when no sealed
    /// block straddles the retention floor).
    pub fn first_ts(&self) -> Option<i64> {
        let head = self.head.first().map(|&(t, _)| t);
        let sealed = self.sealed.iter().map(|b| b.min_ts).min();
        let raw = match (head, sealed) {
            (Some(h), Some(s)) => Some(h.min(s)),
            (a, b) => a.or(b),
        }?;
        Some(match self.floor {
            Some(floor) => raw.max(floor),
            None => raw,
        })
    }

    /// The last visible timestamp.
    pub fn last_ts(&self) -> Option<i64> {
        let head = self.head.last().map(|&(t, _)| t);
        let sealed = self.sealed.iter().map(|b| b.max_ts).max();
        match (head, sealed) {
            (Some(h), Some(s)) => Some(h.max(s)),
            (a, b) => a.or(b),
        }
    }

    /// Number of stored point *versions* (head + sealed). Overlapping
    /// writes count once per layer until compaction deduplicates them;
    /// reads always see one value per timestamp.
    pub fn len(&self) -> usize {
        self.head.len() + self.sealed.iter().map(|b| b.count as usize).sum::<usize>()
    }

    /// True when neither head nor sealed blocks hold any point.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.sealed.is_empty()
    }

    /// Drops head points with timestamps `< cutoff`, drops sealed blocks
    /// entirely below it, and raises the visibility floor so straddling
    /// blocks hide their expired prefix. Returns dropped version count.
    pub fn evict_before(&mut self, cutoff: i64) -> usize {
        let n = self.head.partition_point(|&(t, _)| t < cutoff);
        self.head.drain(..n);
        let mut dropped = n;
        let sealed_before = self.sealed.len();
        self.sealed.retain(|b| {
            if b.max_ts < cutoff {
                dropped += b.count as usize;
                false
            } else {
                true
            }
        });
        if self.sealed.len() != sealed_before {
            self.index = TimeIndex::build(&self.sealed);
        }
        if self.sealed.iter().any(|b| b.min_ts < cutoff) {
            self.floor = Some(self.floor.map_or(cutoff, |f| f.max(cutoff)));
        }
        dropped
    }

    /// Drains the mutable head for sealing (flush).
    pub fn take_head(&mut self) -> Vec<(i64, FieldValue)> {
        std::mem::take(&mut self.head)
    }

    /// The mutable head contents.
    pub fn head(&self) -> &[(i64, FieldValue)] {
        &self.head
    }

    /// Appends a sealed block (flush seal or recovery install). Blocks must
    /// arrive in ascending generation order.
    pub fn push_sealed(&mut self, block: Arc<SealedBlock>) {
        debug_assert!(self.sealed.last().is_none_or(|b| b.gen <= block.gen));
        self.sealed.push(block);
        self.index.push_last(&self.sealed);
    }

    /// Replaces the sealed layer (compaction install).
    pub fn set_sealed(&mut self, blocks: Vec<Arc<SealedBlock>>) {
        self.sealed = blocks;
        self.index = TimeIndex::build(&self.sealed);
    }

    /// The sealed blocks, ascending generation.
    pub fn sealed(&self) -> &[Arc<SealedBlock>] {
        &self.sealed
    }

    /// The retention visibility floor, if one was established.
    pub fn floor(&self) -> Option<i64> {
        self.floor
    }

    /// Head point count (storage stats).
    pub fn head_len(&self) -> usize {
        self.head.len()
    }

    /// Sealed version count and compressed byte total (storage stats).
    pub fn sealed_sizes(&self) -> (usize, usize) {
        (
            self.sealed.iter().map(|b| b.count as usize).sum(),
            self.sealed.iter().map(|b| b.size_bytes()).sum(),
        )
    }
}

/// One series: measurement + tag set + field columns.
#[derive(Debug, Clone)]
pub struct Series {
    /// Key, measurement and tags (sorted by key — canonical form, mirrors
    /// `Point::tags`), shared with every segment entry of the series.
    id: Arc<SeriesId>,
    /// `(field name, column)`, insertion order.
    fields: Vec<(Arc<str>, Column)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(id: Arc<SeriesId>) -> Self {
        Series { id, fields: Vec::new() }
    }

    /// Key, measurement and tags.
    pub fn id(&self) -> &Arc<SeriesId> {
        &self.id
    }

    /// The canonical series key.
    pub fn key(&self) -> &str {
        &self.id.series_key
    }

    /// The measurement name.
    pub fn measurement(&self) -> &str {
        &self.id.measurement
    }

    /// The tag set, sorted by key.
    pub fn tags(&self) -> &[(String, String)] {
        &self.id.tags
    }

    /// Tag lookup.
    pub fn tag(&self, key: &str) -> Option<&str> {
        let tags = self.tags();
        tags.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| tags[i].1.as_str())
    }

    /// The column of a field.
    pub fn field(&self, name: &str) -> Option<&Column> {
        self.fields.iter().find(|(f, _)| &**f == name).map(|(_, c)| c)
    }

    /// Mutable access to a field's column, creating it if missing
    /// (sealed-block install during recovery).
    pub fn field_mut_or_create(&mut self, name: &str) -> &mut Column {
        let slot = self.field_slot(name, 0);
        self.column_mut(slot)
    }

    /// The slot of a field's column, created if missing. Slot `hint` is
    /// tried first: lines repeat their field order.
    pub fn field_slot(&mut self, name: &str, hint: usize) -> usize {
        if self.fields.get(hint).is_some_and(|(f, _)| &**f == name) {
            return hint;
        }
        if let Some(slot) = self.fields.iter().position(|(f, _)| &**f == name) {
            return slot;
        }
        self.fields.push((name.into(), Column::default()));
        self.fields.len() - 1
    }

    /// The column in a slot [`field_slot`](Self::field_slot) returned.
    pub fn column_mut(&mut self, slot: usize) -> &mut Column {
        &mut self.fields[slot].1
    }

    /// Iterates `(field name, column)`, insertion order (compaction).
    pub fn fields(&self) -> impl Iterator<Item = (&Arc<str>, &Column)> {
        self.fields.iter().map(|(f, c)| (f, c))
    }

    /// Iterates `(field name, column)` mutably (flush).
    pub fn fields_mut(&mut self) -> impl Iterator<Item = (&Arc<str>, &mut Column)> {
        self.fields.iter_mut().map(|(f, c)| (&*f, c))
    }

    /// All field names, insertion order.
    pub fn field_names(&self) -> impl Iterator<Item = &str> {
        self.fields.iter().map(|(f, _)| &**f)
    }

    /// Total stored point versions across fields (see [`Column::len`]).
    pub fn point_count(&self) -> usize {
        self.fields.iter().map(|(_, c)| c.len()).sum()
    }

    /// Evicts points older than `cutoff` in every field; drops emptied
    /// fields. Returns evicted version count.
    pub fn evict_before(&mut self, cutoff: i64) -> usize {
        let mut evicted = 0;
        for (_, col) in &mut self.fields {
            evicted += col.evict_before(cutoff);
        }
        self.fields.retain(|(_, c)| !c.is_empty());
        evicted
    }

    /// True when all fields were evicted.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(v: f64) -> FieldValue {
        FieldValue::Float(v)
    }

    fn collect(points: Points<'_>) -> Vec<(i64, FieldValue)> {
        points.collect()
    }

    fn series(measurement: &str, tags: &[(&str, &str)]) -> Series {
        Series::new(Arc::new(SeriesId {
            series_key: measurement.to_string(),
            measurement: measurement.to_string(),
            tags: tags.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
        }))
    }

    /// Seals `points` (must be sorted) into the column at generation `gen`.
    fn seal_into(c: &mut Column, gen: u64, points: &[(i64, FieldValue)]) {
        c.push_sealed(Arc::new(SealedBlock::seal(gen, points)));
    }

    #[test]
    fn in_order_appends() {
        let mut c = Column::default();
        for i in 0..100 {
            c.insert(i, f(i as f64));
        }
        assert_eq!(c.len(), 100);
        let pts = collect(c.points_in(10, 20));
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].0, 10);
        assert!(matches!(c.points_in(10, 20), Points::Head(_)), "no blocks: borrowed fast path");
    }

    #[test]
    fn out_of_order_inserts_sort() {
        let mut c = Column::default();
        for ts in [50, 10, 30, 20, 40] {
            c.insert(ts, f(ts as f64));
        }
        let times: Vec<i64> = c.iter_all().map(|(t, _)| t).collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn duplicate_timestamp_last_write_wins() {
        let mut c = Column::default();
        c.insert(5, f(1.0));
        c.insert(5, f(2.0));
        assert_eq!(c.len(), 1);
        assert_eq!(collect(c.iter_all()), vec![(5, f(2.0))]);
    }

    #[test]
    fn insert_many_append_fast_path_and_run_dups() {
        let mut c = Column::default();
        c.insert(1, f(1.0));
        // Run lands entirely after the head; in-run duplicate resolves to
        // the later value.
        c.insert_many([(2, f(2.0)), (3, f(3.0)), (3, f(33.0)), (4, f(4.0))]);
        assert_eq!(
            collect(c.iter_all()),
            vec![(1, f(1.0)), (2, f(2.0)), (3, f(33.0)), (4, f(4.0))]
        );
    }

    #[test]
    fn insert_many_backfill_merges_with_lww() {
        let mut c = Column::default();
        for ts in [10, 20, 30, 40] {
            c.insert(ts, f(ts as f64));
        }
        // Overlapping backfill: ts 20 collides (run wins), 15/35 interleave,
        // 50 extends.
        c.insert_many([(15, f(1.5)), (20, f(99.0)), (35, f(3.5)), (50, f(5.0))]);
        assert_eq!(
            collect(c.iter_all()),
            vec![
                (10, f(10.0)),
                (15, f(1.5)),
                (20, f(99.0)),
                (30, f(30.0)),
                (35, f(3.5)),
                (40, f(40.0)),
                (50, f(5.0)),
            ]
        );
    }

    #[test]
    fn insert_many_matches_per_point_inserts() {
        let runs: Vec<Vec<(i64, FieldValue)>> = vec![
            vec![(5, f(0.0)), (7, f(1.0))],
            vec![(1, f(2.0)), (5, f(3.0)), (9, f(4.0))],
            vec![(9, f(5.0)), (9, f(6.0)), (10, f(7.0))],
            vec![],
            vec![(0, f(8.0))],
        ];
        let mut batched = Column::default();
        let mut single = Column::default();
        for run in &runs {
            batched.insert_many(run.iter().cloned());
            for (ts, v) in run {
                single.insert(*ts, v.clone());
            }
        }
        assert_eq!(collect(batched.iter_all()), collect(single.iter_all()));
        assert_eq!(batched.len(), single.len());
    }

    #[test]
    fn range_boundaries_are_half_open() {
        let mut c = Column::default();
        for ts in [10, 20, 30] {
            c.insert(ts, f(0.0));
        }
        assert_eq!(c.points_in(10, 30).len(), 2); // 10, 20; 30 excluded
        assert_eq!(c.points_in(i64::MIN, i64::MAX).len(), 3);
        assert_eq!(c.points_in(11, 12).len(), 0);
    }

    #[test]
    fn eviction() {
        let mut c = Column::default();
        for ts in 0..10 {
            c.insert(ts, f(0.0));
        }
        assert_eq!(c.evict_before(5), 5);
        assert_eq!(c.len(), 5);
        assert_eq!(collect(c.iter_all())[0].0, 5);
        assert_eq!(c.evict_before(0), 0);
    }

    #[test]
    fn merge_prefers_head_over_sealed() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(10, f(1.0)), (20, f(2.0)), (30, f(3.0))]);
        c.insert(20, f(99.0)); // overwrite a sealed timestamp
        c.insert(40, f(4.0));
        let pts = collect(c.iter_all());
        assert_eq!(pts, vec![(10, f(1.0)), (20, f(99.0)), (30, f(3.0)), (40, f(4.0))]);
        assert_eq!(c.len(), 5, "len counts versions: 3 sealed + 2 head");
    }

    #[test]
    fn merge_prefers_newer_generation() {
        let mut c = Column::default();
        seal_into(&mut c, 1, &[(10, f(1.0)), (20, f(2.0))]);
        seal_into(&mut c, 2, &[(20, f(22.0)), (30, f(3.0))]);
        let pts = collect(c.iter_all());
        assert_eq!(pts, vec![(10, f(1.0)), (20, f(22.0)), (30, f(3.0))]);
    }

    #[test]
    fn range_skips_non_overlapping_blocks() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(10, f(1.0)), (20, f(2.0))]);
        c.insert(100, f(5.0));
        // Query entirely after the block: fast path, no decode.
        assert!(matches!(c.points_in(50, 200), Points::Head(_)));
        assert_eq!(collect(c.points_in(50, 200)), vec![(100, f(5.0))]);
        // Query touching the block: merged.
        assert_eq!(c.points_in(15, 200).len(), 2);
    }

    #[test]
    fn eviction_drops_whole_blocks_and_floors_straddlers() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(0, f(0.0)), (10, f(1.0))]);
        seal_into(&mut c, 1, &[(20, f(2.0)), (40, f(4.0))]);
        c.insert(50, f(5.0));
        // Cutoff 30: block 0 fully expired (dropped), block 1 straddles.
        let dropped = c.evict_before(30);
        assert_eq!(dropped, 2, "only the fully-expired block is dropped");
        assert_eq!(c.floor(), Some(30));
        let pts = collect(c.iter_all());
        assert_eq!(pts, vec![(40, f(4.0)), (50, f(5.0))], "floor hides ts 20");
        assert_eq!(c.first_ts(), Some(30), "first_ts clamps to the floor");
        assert_eq!(c.last_ts(), Some(50));
    }

    #[test]
    fn take_head_then_seal_round_trips() {
        let mut c = Column::default();
        for ts in 0..50 {
            c.insert(ts, f(ts as f64));
        }
        let head = c.take_head();
        assert_eq!(head.len(), 50);
        assert!(c.head().is_empty());
        seal_into(&mut c, 0, &head);
        assert_eq!(c.len(), 50);
        assert_eq!(c.points_in(10, 20).len(), 10);
        let (count, bytes) = c.sealed_sizes();
        assert_eq!(count, 50);
        assert!(bytes > 0);
    }

    #[test]
    fn scan_summarizes_fully_covered_unshadowed_blocks() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(10, f(1.0)), (20, f(2.0))]);
        seal_into(&mut c, 1, &[(30, f(3.0)), (40, f(4.0))]);
        // Fully covered, disjoint, no head: both answered by summary.
        let scan = c.scan(0, 100, None, true);
        assert_eq!(scan.summarized.len(), 2);
        assert_eq!(scan.residual.count(), 0);
        // Partially covered: block 0 straddles the range start and decodes.
        let scan = c.scan(15, 100, None, true);
        assert_eq!(scan.summarized.len(), 1);
        assert_eq!(collect(scan.residual), vec![(20, f(2.0))]);
        // Summaries disabled: everything decodes.
        let scan = c.scan(0, 100, None, false);
        assert!(scan.summarized.is_empty());
        assert_eq!(scan.residual.count(), 4);
    }

    #[test]
    fn scan_head_shadowing_forces_decode() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(10, f(1.0)), (20, f(2.0))]);
        c.insert(20, f(99.0)); // head overwrites a sealed timestamp
        let scan = c.scan(0, 100, None, true);
        assert!(scan.summarized.is_empty(), "shadowed block must decode");
        assert_eq!(collect(scan.residual), vec![(10, f(1.0)), (20, f(99.0))]);
        // A head point merely *between* block timestamps also blocks the
        // summary (count would be wrong otherwise).
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(10, f(1.0)), (20, f(2.0))]);
        c.insert(15, f(1.5));
        let scan = c.scan(0, 100, None, true);
        assert!(scan.summarized.is_empty());
        assert_eq!(scan.residual.count(), 3);
    }

    #[test]
    fn scan_overlapping_blocks_force_decode() {
        let mut c = Column::default();
        seal_into(&mut c, 1, &[(10, f(1.0)), (30, f(3.0))]);
        seal_into(&mut c, 2, &[(20, f(22.0)), (25, f(2.5))]);
        let scan = c.scan(0, 100, None, true);
        assert!(scan.summarized.is_empty(), "mutually overlapping blocks decode");
        assert_eq!(
            collect(scan.residual),
            vec![(10, f(1.0)), (20, f(22.0)), (25, f(2.5)), (30, f(3.0))]
        );
        // A long early block shadowing a non-adjacent later one: only the
        // middle (disjoint) block may summarize.
        let mut c = Column::default();
        seal_into(&mut c, 1, &[(0, f(0.0)), (100, f(1.0))]);
        seal_into(&mut c, 2, &[(10, f(0.1)), (20, f(0.2))]);
        seal_into(&mut c, 3, &[(90, f(0.9)), (95, f(0.95))]);
        let scan = c.scan(0, 200, None, true);
        assert!(scan.summarized.is_empty(), "gen-1 span intersects both later blocks");
    }

    #[test]
    fn scan_windowed_requires_single_bucket() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(10, f(1.0)), (19, f(2.0))]); // inside window [10, 20)
        seal_into(&mut c, 1, &[(25, f(3.0)), (35, f(4.0))]); // straddles 30
        let scan = c.scan(0, 100, Some(10), true);
        assert_eq!(scan.summarized.len(), 1);
        assert_eq!(scan.summarized[0].min_ts, 10);
        assert_eq!(scan.residual.count(), 2);
        // Unwindowed: both summarize.
        assert_eq!(c.scan(0, 100, None, true).summarized.len(), 2);
    }

    #[test]
    fn scan_respects_retention_floor() {
        let mut c = Column::default();
        seal_into(&mut c, 0, &[(0, f(0.0)), (10, f(1.0))]);
        seal_into(&mut c, 1, &[(20, f(2.0)), (40, f(4.0))]);
        c.evict_before(30); // block 0 dropped, block 1 straddles → floor 30
        let scan = c.scan(i64::MIN, i64::MAX, None, true);
        assert!(scan.summarized.is_empty(), "floor-clipped block must decode");
        assert_eq!(collect(scan.residual), vec![(40, f(4.0))]);
    }

    #[test]
    fn time_index_finds_overlaps_like_linear_scan() {
        let mut c = Column::default();
        // Deliberately interleaved spans, inserted in gen order.
        let spans: &[(i64, i64)] = &[(0, 50), (10, 20), (60, 70), (40, 65), (80, 90)];
        for (g, &(lo, hi)) in spans.iter().enumerate() {
            seal_into(&mut c, g as u64, &[(lo, f(lo as f64)), (hi, f(hi as f64))]);
        }
        for (start, end) in
            [(0, 100), (55, 62), (21, 39), (91, 100), (i64::MIN, i64::MAX), (70, 71), (50, 51)]
        {
            let by_index: Vec<u64> = c
                .index
                .overlapping(&c.sealed, start, end)
                .into_iter()
                .map(|i| c.sealed[i].gen)
                .collect();
            let mut linear: Vec<u64> =
                c.sealed.iter().filter(|b| b.overlaps(start, end)).map(|b| b.gen).collect();
            linear.sort_by_key(|&g| c.sealed.iter().position(|b| b.gen == g).unwrap());
            let mut by_index_sorted = by_index.clone();
            by_index_sorted.sort();
            let mut linear_sorted = linear.clone();
            linear_sorted.sort();
            assert_eq!(by_index_sorted, linear_sorted, "range [{start}, {end})");
        }
    }

    proptest::proptest! {
        /// Whatever order blocks are pushed in — ascending `min_ts` (live
        /// flushes, the O(1) append), ties, or backfill before indexed
        /// blocks (the rebuild) — the index kept in step equals one built
        /// from scratch and finds what a linear scan finds.
        #[test]
        fn incremental_time_index_equals_rebuild(
            spans in proptest::collection::vec((0i64..200, 0i64..60, 0u8..4), 1..24),
            ranges in proptest::collection::vec((-10i64..260, 1i64..120), 1..8),
        ) {
            let mut c = Column::default();
            let mut next_lo = 0;
            for (g, &(lo, len, in_order)) in spans.iter().enumerate() {
                // Three pushes in four continue from the newest block, the
                // fourth lands anywhere.
                let lo = if in_order > 0 { next_lo + lo % 5 } else { lo };
                next_lo = next_lo.max(lo);
                seal_into(&mut c, g as u64, &[(lo, f(0.0)), (lo + len + 1, f(1.0))]);
                proptest::prop_assert_eq!(&c.index, &TimeIndex::build(&c.sealed));
            }
            for &(start, len) in &ranges {
                let end = start + len;
                let mut by_index = c.index.overlapping(&c.sealed, start, end);
                by_index.sort_unstable();
                let linear: Vec<usize> =
                    (0..c.sealed.len()).filter(|&i| c.sealed[i].overlaps(start, end)).collect();
                proptest::prop_assert_eq!(by_index, linear, "range [{}, {})", start, end);
            }
        }
    }

    #[test]
    fn series_fields_and_tags() {
        let mut s = series("cpu", &[("hostname", "h1")]);
        s.field_mut_or_create("value").insert(1, f(0.5));
        s.field_mut_or_create("count").insert(1, FieldValue::Integer(3));
        s.field_mut_or_create("value").insert(2, f(0.7));
        assert_eq!(s.measurement(), "cpu");
        assert_eq!(s.tag("hostname"), Some("h1"));
        assert_eq!(s.tag("missing"), None);
        assert_eq!(s.field("value").unwrap().len(), 2);
        assert_eq!(s.field_names().collect::<Vec<_>>(), vec!["value", "count"]);
        assert_eq!(s.point_count(), 3);
    }

    #[test]
    fn series_eviction_drops_empty_fields() {
        let mut s = series("m", &[]);
        s.field_mut_or_create("old").insert(1, f(0.0));
        s.field_mut_or_create("fresh").insert(100, f(0.0));
        assert_eq!(s.evict_before(50), 1);
        assert!(s.field("old").is_none());
        assert!(s.field("fresh").is_some());
        assert!(!s.is_empty());
        s.evict_before(200);
        assert!(s.is_empty());
    }
}
