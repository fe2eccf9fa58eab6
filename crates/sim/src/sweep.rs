//! Declarative parameter sweeps on a work-stealing worker pool.
//!
//! The paper's evaluation is a grid of sweeps — latency vs. cache size,
//! object size, load, placement, scheme — and every figure reproducer walks
//! such a grid. This module gives them one engine:
//!
//! * [`SweepGrid`] — the cartesian product of named axes. Each resulting
//!   [`SweepCell`] carries a seed **derived from its coordinates** (not from
//!   its position in any work queue), so adding an axis value or filtering
//!   cells never perturbs the randomness of the remaining cells.
//! * a **work-stealing pool** — `cells × replications` are flattened into one
//!   task set; each worker owns a deque and steals from its siblings when it
//!   runs dry, so one expensive cell (a long optimization, a byte-accurate
//!   replication) never idles the rest of the pool.
//! * [`SweepReport`] — per-cell rows folding replication samples into
//!   [`MeanCi`] summaries, serialized as deterministic JSON that is
//!   **bit-identical for any worker count**: results land in index-addressed
//!   slots and are folded in (cell, replication) order, and the report
//!   records no wall-clock times or thread counts.
//! * [`SweepTimings`] — the wall-clock *side-channel* beside every report: per-cell
//!   wall seconds and an overall figure, kept strictly outside the report so
//!   slow cells are visible without breaking its determinism guarantee.
//!
//! ```
//! use sprout_sim::sweep::{Sample, SweepGrid};
//!
//! let grid = SweepGrid::named("demo", 7)
//!     .axis("cache", ["100", "200"])
//!     .axis("policy", ["functional", "lru"]);
//! let (report, _timings) = grid.run(4, |cell, _rep, seed| {
//!     let cache: f64 = cell.coord("cache").parse().unwrap();
//!     Sample::new().metric("latency_s", cache / 100.0 + (seed % 3) as f64)
//! });
//! assert_eq!(report.rows.len(), 4);
//! assert_eq!(report.to_json(), grid.run(1, |cell, _rep, seed| {
//!     let cache: f64 = cell.coord("cache").parse().unwrap();
//!     Sample::new().metric("latency_s", cache / 100.0 + (seed % 3) as f64)
//! }).0.to_json());
//! ```

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::engine::replication_seed;
use crate::replicate::MeanCi;

/// One named axis of a sweep grid and its value labels.
///
/// Labels are strings: they key the JSON rows and feed the coordinate-derived
/// cell seeds, while the task closure recovers typed values either by parsing
/// the label or by indexing its own typed table with [`SweepCell::idx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Axis {
    /// Axis name (e.g. `"cache_chunks"`).
    pub name: String,
    /// Value labels, in sweep order.
    pub values: Vec<String>,
}

/// One cell of the cartesian product: a coordinate assignment plus the
/// replication count and deterministic seed attached to it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Row-major index of the cell in the full grid (stable even when a
    /// filtered subset of cells is run).
    pub index: usize,
    /// `(axis name, value label)` pairs, one per axis, in axis order.
    pub coords: Vec<(String, String)>,
    /// Per-axis value indices, parallel to `coords`.
    pub indices: Vec<usize>,
    /// Number of replications to run for this cell.
    pub replications: usize,
    /// The cell's base seed, derived from its coordinates.
    pub seed: u64,
}

impl SweepCell {
    /// The value index of `axis` for this cell.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no axis of that name.
    pub fn idx(&self, axis: &str) -> usize {
        self.coords
            .iter()
            .position(|(name, _)| name == axis)
            .map(|i| self.indices[i])
            .unwrap_or_else(|| panic!("sweep grid has no axis named '{axis}'"))
    }

    /// The value label of `axis` for this cell.
    ///
    /// # Panics
    ///
    /// Panics if the grid has no axis of that name.
    pub fn coord(&self, axis: &str) -> &str {
        self.coords
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, value)| value.as_str())
            .unwrap_or_else(|| panic!("sweep grid has no axis named '{axis}'"))
    }

    /// The seed of replication `r` of this cell.
    pub fn replication_seed(&self, r: usize) -> u64 {
        replication_seed(self.seed, r)
    }
}

/// What one `(cell, replication)` task measured. Built with the fluent
/// helpers; the fold requires every replication of a cell to report the same
/// metric/counter names in the same order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Scalar measurements, folded into [`MeanCi`] across replications.
    pub metrics: Vec<(String, f64)>,
    /// Event counts, summed across replications.
    pub counters: Vec<(String, u64)>,
    /// High-water marks, max-folded across replications.
    pub maxima: Vec<(String, u64)>,
    /// Per-cell series (traces, CDFs, per-slot counts); the fold keeps
    /// replication 0's series.
    pub series: Vec<(String, Vec<f64>)>,
}

impl Sample {
    /// Creates an empty sample.
    pub fn new() -> Self {
        Sample::default()
    }

    /// Adds a scalar metric.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Adds an event counter.
    pub fn counter(mut self, name: impl Into<String>, value: u64) -> Self {
        self.counters.push((name.into(), value));
        self
    }

    /// Adds a high-water mark.
    pub fn maximum(mut self, name: impl Into<String>, value: u64) -> Self {
        self.maxima.push((name.into(), value));
        self
    }

    /// Adds a series.
    pub fn series(mut self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.series.push((name.into(), values));
        self
    }
}

/// One folded row of a [`SweepReport`], keyed by its cell coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// `(axis name, value label)` coordinates of the cell.
    pub coords: Vec<(String, String)>,
    /// Replications folded into this row.
    pub replications: usize,
    /// Scalar metrics with mean / std-dev / 95 % CI across replications.
    pub metrics: Vec<(String, MeanCi)>,
    /// Counters summed across replications.
    pub counters: Vec<(String, u64)>,
    /// High-water marks max-folded across replications.
    pub maxima: Vec<(String, u64)>,
    /// Replication 0's series.
    pub series: Vec<(String, Vec<f64>)>,
}

impl SweepRow {
    /// The folded metric of that name, if present.
    pub fn metric(&self, name: &str) -> Option<&MeanCi> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// The counter of that name, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The series of that name, if present.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// The value label of `axis` for this row.
    ///
    /// # Panics
    ///
    /// Panics if no axis of that name exists.
    pub fn coord(&self, axis: &str) -> &str {
        self.coords
            .iter()
            .find(|(name, _)| name == axis)
            .map(|(_, value)| value.as_str())
            .unwrap_or_else(|| panic!("row has no axis named '{axis}'"))
    }
}

/// The structured outcome of a sweep: one row per executed cell, in cell
/// order, plus the grid shape and free-form metadata/notes.
///
/// [`SweepReport::to_json`] is the artifact format consumed by CI; it
/// deliberately records nothing scheduling-dependent (no thread counts, no
/// wall-clock times), so the serialization is bit-identical for any worker
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (figure/table identifier).
    pub name: String,
    /// The grid axes.
    pub axes: Vec<Axis>,
    /// Free-form key/value metadata (system shape, scale, flags).
    pub meta: Vec<(String, String)>,
    /// Human-readable notes (paper claims, measured shapes).
    pub notes: Vec<String>,
    /// Folded rows, in cell order.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Appends a metadata entry.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Appends a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// The first row whose coordinates contain every `(axis, label)` pair in
    /// `coords`.
    pub fn find_row(&self, coords: &[(&str, &str)]) -> Option<&SweepRow> {
        self.rows.iter().find(|row| {
            coords.iter().all(|&(axis, label)| {
                row.coords
                    .iter()
                    .any(|(name, value)| name == axis && value == label)
            })
        })
    }

    /// Serializes the report as deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.rows.len() * 256);
        out.push_str("{\n");
        out.push_str(&format!("  \"sweep\": {},\n", json_str(&self.name)));
        out.push_str("  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}: {}", json_str(k), json_str(v)));
        }
        out.push_str("},\n");
        out.push_str("  \"axes\": [");
        for (i, axis) in self.axes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"name\": {}, \"values\": [",
                json_str(&axis.name)
            ));
            for (j, v) in axis.values.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_str(v));
            }
            out.push_str("]}");
        }
        out.push_str("],\n");
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str("    {\"cell\": {");
            for (j, (axis, value)) in row.coords.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(axis), json_str(value)));
            }
            out.push_str(&format!("}}, \"replications\": {}", row.replications));
            if !row.metrics.is_empty() {
                out.push_str(", \"metrics\": {");
                for (j, (name, m)) in row.metrics.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{}: {{\"mean\": {}, \"std_dev\": {}, \"ci95\": {}}}",
                        json_str(name),
                        json_f64(m.mean),
                        json_f64(m.std_dev),
                        json_f64(m.ci95)
                    ));
                }
                out.push('}');
            }
            if !row.counters.is_empty() {
                out.push_str(", \"counters\": {");
                for (j, (name, v)) in row.counters.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{}: {v}", json_str(name)));
                }
                out.push('}');
            }
            if !row.maxima.is_empty() {
                out.push_str(", \"maxima\": {");
                for (j, (name, v)) in row.maxima.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{}: {v}", json_str(name)));
                }
                out.push('}');
            }
            if !row.series.is_empty() {
                out.push_str(", \"series\": {");
                for (j, (name, values)) in row.series.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{}: [", json_str(name)));
                    for (k, v) in values.iter().enumerate() {
                        if k > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&json_f64(*v));
                    }
                    out.push(']');
                }
                out.push('}');
            }
            out.push('}');
            if i + 1 != self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ],\n");
        out.push_str("  \"notes\": [");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_str(note));
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float for JSON. Rust's shortest-round-trip `Display` is
/// deterministic, so identical values always serialize identically;
/// non-finite values (invalid JSON numbers) become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Wall-clock timing of one executed cell: total seconds across its
/// replications and the slowest single replication.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CellTiming {
    /// `(axis name, value label)` coordinates of the cell.
    pub coords: Vec<(String, String)>,
    /// Replications measured.
    pub replications: usize,
    /// Sum of replication wall times, in seconds.
    pub total_s: f64,
    /// Wall time of the slowest replication, in seconds.
    pub max_replication_s: f64,
}

/// The wall-clock side-channel of a sweep run.
///
/// [`SweepReport`] deliberately records nothing scheduling-dependent so its
/// JSON stays byte-identical across worker counts; per-cell wall time
/// therefore lives *here*, in a separate, **non-diffed** artifact (plus a
/// stderr summary), so slow cells are visible without perturbing the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTimings {
    /// Sweep name (matches the report).
    pub name: String,
    /// Worker count the run was asked for.
    pub threads: usize,
    /// End-to-end wall time of the sweep, in seconds.
    pub wall_s: f64,
    /// Per-cell timings, in cell order.
    pub(crate) cells: Vec<CellTiming>,
}

impl SweepTimings {
    /// Cells sorted slowest-first by total wall time.
    pub(crate) fn slowest(&self) -> Vec<&CellTiming> {
        let mut cells: Vec<&CellTiming> = self.cells.iter().collect();
        cells.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));
        cells
    }

    /// A short human-readable summary (for stderr): overall wall time and
    /// the `top` slowest cells.
    pub fn summary(&self, top: usize) -> String {
        let mut out = format!(
            "sweep '{}': {} cells in {:.2} s wall on {} thread{}",
            self.name,
            self.cells.len(),
            self.wall_s,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
        );
        for cell in self.slowest().into_iter().take(top) {
            let coords = cell
                .coords
                .iter()
                .map(|(axis, value)| format!("{axis}={value}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "\n  {:>8.3} s  [{coords}] ({} rep{}, max {:.3} s)",
                cell.total_s,
                cell.replications,
                if cell.replications == 1 { "" } else { "s" },
                cell.max_replication_s,
            ));
        }
        out
    }

    /// Serializes the timings as JSON (same structural conventions as the
    /// report, but *not* deterministic — wall times differ run to run, which
    /// is why this artifact is never diffed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 128);
        out.push_str("{\n");
        out.push_str(&format!("  \"sweep\": {},\n", json_str(&self.name)));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"wall_s\": {},\n", json_f64(self.wall_s)));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    {\"cell\": {");
            for (j, (axis, value)) in cell.coords.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{}: {}", json_str(axis), json_str(value)));
            }
            out.push_str(&format!(
                "}}, \"replications\": {}, \"total_s\": {}, \"max_replication_s\": {}}}",
                cell.replications,
                json_f64(cell.total_s),
                json_f64(cell.max_replication_s)
            ));
            if i + 1 != self.cells.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// FNV-1a over the coordinate labels: ties a cell's seed to *what* it
/// measures instead of *where* it sits in the work queue.
fn coord_hash(coords: &[(String, String)]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0xff; // separator so ("ab","c") != ("a","bc")
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for (axis, value) in coords {
        eat(axis.as_bytes());
        eat(value.as_bytes());
    }
    hash
}

/// A declarative sweep: named axes whose cartesian product is executed on a
/// work-stealing pool. See the [module docs](self) for the guarantees.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    name: String,
    base_seed: u64,
    replications: usize,
    axes: Vec<Axis>,
}

impl SweepGrid {
    /// Creates an empty grid (a single axis-less cell) with a base seed.
    pub fn named(name: impl Into<String>, base_seed: u64) -> Self {
        SweepGrid {
            name: name.into(),
            base_seed,
            replications: 1,
            axes: Vec::new(),
        }
    }

    /// Appends an axis. [`SweepGrid::check`] states the rules the axes must
    /// meet.
    pub fn axis<I, S>(mut self, name: impl Into<String>, values: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.axes.push(Axis {
            name: name.into(),
            values: values.into_iter().map(Into::into).collect(),
        });
        self
    }

    /// Sets the default replication count per cell (default 1).
    pub fn replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Checks the grid: axis names are distinct, every axis has at least one
    /// value, the values of an axis are distinct, and the replication count
    /// is positive. Duplicate labels would collapse cell identity:
    /// coordinate-derived seeds would collide and JSON rows would become
    /// indistinguishable.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule as a message.
    pub fn check(&self) -> Result<(), String> {
        for (a, axis) in self.axes.iter().enumerate() {
            let name = &axis.name;
            if self.axes[..a].iter().any(|o| o.name == *name) {
                return Err(format!("duplicate sweep axis '{name}'"));
            }
            if axis.values.is_empty() {
                return Err(format!("sweep axis '{name}' has no values"));
            }
            for (i, v) in axis.values.iter().enumerate() {
                if axis.values[..i].contains(v) {
                    return Err(format!("duplicate value '{v}' on sweep axis '{name}'"));
                }
            }
        }
        if self.replications == 0 {
            return Err("replications must be positive".into());
        }
        Ok(())
    }

    /// The grid name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of cells in the full cartesian product.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len()).product()
    }

    /// `true` when the grid has an axis with zero values, which
    /// [`SweepGrid::check`] rejects. A grid with no axes at all is a single
    /// cell, never empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the cells of the cartesian product, row-major (the last
    /// axis varies fastest). Callers may filter the list or adjust per-cell
    /// `replications` before [`SweepGrid::run_cells`]; seeds stay attached to
    /// coordinates, so neither operation perturbs the surviving cells.
    ///
    /// # Panics
    ///
    /// Panics with [`SweepGrid::check`]'s message if the grid breaks a rule.
    pub fn cells(&self) -> Vec<SweepCell> {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        let total = self.len();
        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            let mut rem = index;
            let mut indices = vec![0usize; self.axes.len()];
            for (a, axis) in self.axes.iter().enumerate().rev() {
                indices[a] = rem % axis.values.len();
                rem /= axis.values.len();
            }
            let coords: Vec<(String, String)> = self
                .axes
                .iter()
                .zip(&indices)
                .map(|(axis, &i)| (axis.name.clone(), axis.values[i].clone()))
                .collect();
            let seed = crate::engine::mix_seed(self.base_seed, coord_hash(&coords));
            cells.push(SweepCell {
                index,
                coords,
                indices,
                replications: self.replications,
                seed,
            });
        }
        cells
    }

    /// Runs every cell of the grid across `threads` workers.
    ///
    /// `task(cell, r, seed)` produces replication `r`'s [`Sample`] for the
    /// cell, where `seed = cell.replication_seed(r)`. The report is identical
    /// for any `threads` value; the wall-clock [`SweepTimings`] side-channel
    /// beside it never influences the report.
    pub fn run<F>(&self, threads: usize, task: F) -> (SweepReport, SweepTimings)
    where
        F: Fn(&SweepCell, usize, u64) -> Sample + Sync,
    {
        self.run_cells(self.cells(), threads, task)
    }

    /// Runs an explicit cell list (e.g. a filtered subset of
    /// [`SweepGrid::cells`], or cells with adjusted replication counts) as
    /// [`SweepGrid::run`] does: executes the task set on the work-stealing
    /// pool, folds the deterministic report and measures the timings
    /// alongside it.
    pub fn run_cells<F>(
        &self,
        cells: Vec<SweepCell>,
        threads: usize,
        task: F,
    ) -> (SweepReport, SweepTimings)
    where
        F: Fn(&SweepCell, usize, u64) -> Sample + Sync,
    {
        let sweep_start = std::time::Instant::now();
        // Flatten cells × replications into one task set so a slow cell's
        // replications can spread over the pool.
        let tasks: Vec<(usize, usize)> = cells
            .iter()
            .enumerate()
            .flat_map(|(c, cell)| (0..cell.replications.max(1)).map(move |r| (c, r)))
            .collect();
        let slots: Vec<Mutex<Option<(Sample, f64)>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();

        run_stealing(tasks.len(), threads, |t| {
            let (c, r) = tasks[t];
            let cell = &cells[c];
            let task_start = std::time::Instant::now();
            let sample = task(cell, r, cell.replication_seed(r));
            let elapsed = task_start.elapsed().as_secs_f64();
            *slots[t].lock().expect("no panics while holding a slot") = Some((sample, elapsed));
        });

        // Fold in (cell, replication) order — scheduling-independent.
        let mut samples: Vec<Vec<Sample>> = cells.iter().map(|_| Vec::new()).collect();
        let mut timings: Vec<CellTiming> = cells
            .iter()
            .map(|cell| CellTiming {
                coords: cell.coords.clone(),
                replications: 0,
                total_s: 0.0,
                max_replication_s: 0.0,
            })
            .collect();
        for (t, slot) in slots.into_iter().enumerate() {
            let (sample, elapsed) = slot
                .into_inner()
                .expect("worker did not panic")
                .expect("every task index was claimed");
            samples[tasks[t].0].push(sample);
            let timing = &mut timings[tasks[t].0];
            timing.replications += 1;
            timing.total_s += elapsed;
            timing.max_replication_s = timing.max_replication_s.max(elapsed);
        }
        let rows = cells
            .iter()
            .zip(samples)
            .map(|(cell, reps)| fold_cell(cell, reps))
            .collect();
        let report = SweepReport {
            name: self.name.clone(),
            axes: self.axes.clone(),
            meta: Vec::new(),
            notes: Vec::new(),
            rows,
        };
        let timings = SweepTimings {
            name: self.name.clone(),
            threads: threads.max(1),
            wall_s: sweep_start.elapsed().as_secs_f64(),
            cells: timings,
        };
        (report, timings)
    }
}

/// Folds one cell's replication samples into a row.
///
/// # Panics
///
/// Panics if replications of the same cell disagree on metric/counter names
/// (a task bug that would otherwise mis-align the fold).
fn fold_cell(cell: &SweepCell, reps: Vec<Sample>) -> SweepRow {
    let first = reps.first().cloned().unwrap_or_default();
    for (r, sample) in reps.iter().enumerate().skip(1) {
        let names = |v: &[(String, f64)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            names(&first.metrics),
            names(&sample.metrics),
            "cell {:?}: replication {r} reports different metrics",
            cell.coords
        );
        let cnames = |v: &[(String, u64)]| v.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
        assert_eq!(
            cnames(&first.counters),
            cnames(&sample.counters),
            "cell {:?}: replication {r} reports different counters",
            cell.coords
        );
        assert_eq!(
            cnames(&first.maxima),
            cnames(&sample.maxima),
            "cell {:?}: replication {r} reports different maxima",
            cell.coords
        );
    }
    let metrics = first
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = reps.iter().map(|s| s.metrics[i].1).collect();
            (name.clone(), MeanCi::from_values(&values))
        })
        .collect();
    let counters = first
        .counters
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.clone(), reps.iter().map(|s| s.counters[i].1).sum()))
        .collect();
    let maxima = first
        .maxima
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            (
                name.clone(),
                reps.iter().map(|s| s.maxima[i].1).max().unwrap_or(0),
            )
        })
        .collect();
    SweepRow {
        coords: cell.coords.clone(),
        replications: reps.len(),
        metrics,
        counters,
        maxima,
        series: first.series,
    }
}

/// Executes tasks `0..count` on `threads` workers with per-worker deques and
/// sibling stealing.
fn run_stealing<F>(count: usize, threads: usize, run: F)
where
    F: Fn(usize) + Sync,
{
    if count == 0 {
        return;
    }
    let workers = threads.max(1).min(count);
    // Round-robin initial distribution: contiguous (cell, replication) tasks
    // land on different workers, so same-cell work starts spread out.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..count).step_by(workers).collect()))
        .collect();
    let run = &run;
    let queues = &queues;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || loop {
                // Own queue first (front: cache-friendly order)…
                let mut next = queues[w].lock().expect("queue lock").pop_front();
                // …then steal from a sibling's back.
                if next.is_none() {
                    for i in 1..workers {
                        let victim = (w + i) % workers;
                        next = queues[victim].lock().expect("queue lock").pop_back();
                        if next.is_some() {
                            break;
                        }
                    }
                }
                match next {
                    Some(t) => run(t),
                    None => return,
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_grid() -> SweepGrid {
        SweepGrid::named("unit", 42)
            .axis("a", ["1", "2", "3"])
            .axis("b", ["x", "y"])
            .replications(3)
    }

    fn demo_task(cell: &SweepCell, rep: usize, seed: u64) -> Sample {
        Sample::new()
            .metric(
                "value",
                (cell.idx("a") * 10 + cell.idx("b")) as f64 + rep as f64,
            )
            .metric("seed_low", (seed % 97) as f64)
            .counter("count", 1 + rep as u64)
            .maximum("peak", (seed % 13) + rep as u64)
            .series("trace", vec![rep as f64, cell.index as f64])
    }

    #[test]
    fn cartesian_product_is_row_major_and_seeded_by_coordinates() {
        let grid = demo_grid();
        let cells = grid.cells();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].coords[0], ("a".into(), "1".into()));
        assert_eq!(cells[0].coords[1], ("b".into(), "x".into()));
        assert_eq!(cells[1].coords[1], ("b".into(), "y".into()));
        assert_eq!(cells[2].coords[0], ("a".into(), "2".into()));
        // Seeds are distinct and stable.
        let seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "cell seeds must be distinct");
        assert_eq!(grid.cells()[3].seed, seeds[3]);
        // A cell's seed depends on its coordinates, not its position:
        // dropping cells does not change survivors' seeds.
        let filtered: Vec<SweepCell> = grid
            .cells()
            .into_iter()
            .filter(|c| c.coord("b") == "y")
            .collect();
        assert_eq!(filtered[0].seed, seeds[1]);
        assert_eq!(filtered[1].seed, seeds[3]);
    }

    #[test]
    fn report_is_bit_identical_across_worker_counts() {
        let grid = demo_grid();
        let reference = grid.run(1, demo_task).0.to_json();
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(
                grid.run(threads, demo_task).0.to_json(),
                reference,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn fold_aggregates_metrics_counters_maxima_and_series() {
        let grid = demo_grid();
        let (report, _) = grid.run(4, demo_task);
        assert_eq!(report.rows.len(), 6);
        let row = report.find_row(&[("a", "2"), ("b", "y")]).unwrap();
        let m = row.metric("value").unwrap();
        assert_eq!(m.replications, 3);
        // values are base, base+1, base+2 -> mean = base + 1.
        assert!((m.mean - 12.0).abs() < 1e-12);
        assert_eq!(row.counter("count"), Some(1 + 2 + 3));
        // Series comes from replication 0.
        assert_eq!(row.series("trace").unwrap()[0], 0.0);
        assert_eq!(row.replications, 3);
    }

    #[test]
    fn filtered_cells_and_per_cell_replications_are_respected() {
        let grid = demo_grid();
        let mut cells: Vec<SweepCell> = grid
            .cells()
            .into_iter()
            .filter(|c| c.coord("a") != "3")
            .collect();
        cells[0].replications = 1;
        let (report, _) = grid.run_cells(cells, 2, demo_task);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.rows[0].replications, 1);
        assert_eq!(report.rows[1].replications, 3);
        assert!(report.find_row(&[("a", "3")]).is_none());
    }

    #[test]
    fn timings_cover_every_cell_without_touching_the_report() {
        let grid = demo_grid();
        let (report, timings) = grid.run(3, demo_task);
        // The side-channel must not perturb the deterministic report.
        assert_eq!(report.to_json(), grid.run(1, demo_task).0.to_json());
        assert_eq!(timings.cells.len(), report.rows.len());
        for (timing, row) in timings.cells.iter().zip(&report.rows) {
            assert_eq!(timing.coords, row.coords);
            assert_eq!(timing.replications, row.replications);
            assert!(timing.total_s >= timing.max_replication_s);
            assert!(timing.max_replication_s >= 0.0);
        }
        assert!(timings.wall_s >= 0.0);
        assert_eq!(timings.threads, 3);
        assert_eq!(timings.slowest().len(), 6);
        let json = timings.to_json();
        assert!(json.contains("\"wall_s\""));
        assert!(json.contains("\"total_s\""));
        assert!(json.ends_with("}\n"));
        let summary = timings.summary(2);
        assert!(summary.contains("6 cells"));
        assert_eq!(summary.lines().count(), 3, "header + top-2 cells");
    }

    #[test]
    fn empty_cell_list_yields_a_valid_empty_report() {
        let grid = demo_grid();
        let (report, _) = grid.run_cells(Vec::new(), 4, demo_task);
        assert!(report.rows.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"rows\": [\n  ]"));
        assert!(json.ends_with("}\n"));
    }

    #[test]
    fn axisless_grid_is_a_single_cell() {
        let grid = SweepGrid::named("point", 1);
        assert_eq!(grid.len(), 1);
        let (report, _) = grid.run(1, |_, _, _| Sample::new().metric("m", 1.0));
        assert_eq!(report.rows.len(), 1);
        assert!(report.rows[0].coords.is_empty());
    }

    #[test]
    fn json_escapes_and_formats_deterministically() {
        let report = SweepReport {
            name: "quote\"and\\slash".into(),
            axes: vec![Axis {
                name: "x".into(),
                values: vec!["a\nb".into()],
            }],
            meta: vec![("k".into(), "v".into())],
            notes: vec!["tab\there".into()],
            rows: vec![SweepRow {
                coords: vec![("x".into(), "a\nb".into())],
                replications: 1,
                metrics: vec![("nan".into(), MeanCi::from_values(&[f64::NAN]))],
                counters: vec![("c".into(), 7)],
                maxima: vec![],
                series: vec![("s".into(), vec![1.0, 0.5, f64::INFINITY])],
            }],
        };
        let json = report.to_json();
        assert!(json.contains("quote\\\"and\\\\slash"));
        assert!(json.contains("a\\nb"));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"mean\": null"), "NaN serializes as null");
        assert!(json.contains("[1, 0.5, null]"));
    }

    #[test]
    fn check_names_each_broken_rule() {
        let ok = SweepGrid::named("g", 0).axis("a", ["1", "2"]);
        assert_eq!(ok.check(), Ok(()));
        let empty = SweepGrid::named("g", 0).axis("a", Vec::<String>::new());
        assert_eq!(empty.check(), Err("sweep axis 'a' has no values".into()));
        assert!(empty.is_empty());
        let dup = ok.clone().axis("b", ["x", "x"]);
        assert_eq!(
            dup.check(),
            Err("duplicate value 'x' on sweep axis 'b'".into())
        );
        let twice = ok.clone().axis("a", ["3"]);
        assert_eq!(twice.check(), Err("duplicate sweep axis 'a'".into()));
        assert_eq!(
            ok.replications(0).check(),
            Err("replications must be positive".into())
        );
    }

    #[test]
    #[should_panic(expected = "duplicate sweep axis")]
    fn duplicate_axis_panics() {
        let _ = SweepGrid::named("dup", 0)
            .axis("a", ["1"])
            .axis("a", ["2"])
            .cells();
    }

    #[test]
    #[should_panic(expected = "duplicate value '1' on sweep axis 'a'")]
    fn duplicate_axis_value_panics() {
        let _ = SweepGrid::named("dup", 0)
            .axis("a", ["1", "2", "1"])
            .cells();
    }

    #[test]
    #[should_panic(expected = "replication 1 reports different metrics")]
    fn mismatched_metric_names_across_replications_panic() {
        let grid = SweepGrid::named("bad", 0).axis("a", ["1"]).replications(2);
        let _ = grid.run(1, |_, rep, _| {
            if rep == 0 {
                Sample::new().metric("m", 1.0)
            } else {
                Sample::new().metric("other", 1.0)
            }
        });
    }

    #[test]
    #[should_panic(expected = "no axis named")]
    fn unknown_axis_lookup_panics() {
        let grid = SweepGrid::named("g", 0).axis("a", ["1"]);
        let cells = grid.cells();
        let _ = cells[0].coord("nope");
    }
}
