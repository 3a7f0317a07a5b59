//! Headless panel rendering: live query data → ASCII charts.
//!
//! Grafana draws the panels in a browser; this renderer draws them in a
//! terminal so the paper's figures regenerate in CI. Graph panels become
//! line charts with a y-axis, a time axis, one marker glyph per series and
//! event annotations as dashed vertical lines (`¦`) — the visual language
//! of Fig. 3 and Fig. 4.

use crate::model::{Panel, PanelKind};
use lms_analysis::stats::Histogram;
use lms_analysis::TimeSeries;
use lms_influx::query::{Condition, Projection, Select, TimeValue};
use lms_influx::{QueryResult, QuerySource, Statement};
use lms_util::{Error, Result, Timestamp};

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct RenderOptions {
    /// Chart width in columns (plot area, excluding the y-axis gutter).
    pub width: usize,
    /// Chart height in rows.
    pub height: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions { width: 72, height: 12 }
    }
}

/// Marker glyphs assigned to series in order.
const MARKERS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];

/// A compact one-line sparkline (admin-view thumbnails).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return String::new();
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(f64::MIN_POSITIVE);
    finite
        .iter()
        .map(|v| BARS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

/// Renders a panel against a data source.
pub fn render_panel(
    panel: &Panel,
    source: &mut dyn QuerySource,
    opts: RenderOptions,
) -> Result<String> {
    Ok(render_panels(&[panel], source, opts)?.pop().expect("one text per panel"))
}

/// Renders panels together, one text per panel: every panel's targets go
/// to the source as one batch per database, then every graph's annotation
/// query (whose time window comes out of the graph's data) as a second —
/// two round trips for a remote source, however many panels.
pub fn render_panels(
    panels: &[&Panel],
    source: &mut dyn QuerySource,
    opts: RenderOptions,
) -> Result<Vec<String>> {
    let targets = panels
        .iter()
        .filter(|panel| panel.kind != PanelKind::Text)
        .flat_map(|panel| &panel.targets)
        .map(|target| (target.db.clone(), target.query.clone()))
        .collect();
    let mut answers = query_per_db(source, targets)?.into_iter();

    let mut texts: Vec<String> = Vec::with_capacity(panels.len());
    let mut graphs: Vec<(usize, Graph)> = Vec::new();
    for (i, panel) in panels.iter().enumerate() {
        let queried = if panel.kind == PanelKind::Text { 0 } else { panel.targets.len() };
        let results: Vec<QueryResult> = answers.by_ref().take(queried).collect();
        let series = panel.targets.iter().zip(&results);
        texts.push(match panel.kind {
            PanelKind::Text => format!("== {} ==\n{}\n", panel.title, panel.content),
            PanelKind::SingleStat => {
                let mut out = format!("== {} ==\n", panel.title);
                for (target, result) in series {
                    match TimeSeries::from_result(result, &target.column).last() {
                        Some((_, v)) => {
                            out.push_str(&format!("{}: {v:.4} {}\n", target.alias, panel.unit))
                        }
                        None => out.push_str(&format!("{}: no data\n", target.alias)),
                    }
                }
                out
            }
            PanelKind::Histogram => {
                let values: Vec<f64> = series
                    .flat_map(|(target, result)| {
                        TimeSeries::from_result(result, &target.column).values()
                    })
                    .collect();
                render_histogram(panel, &values, opts)
            }
            PanelKind::Graph => {
                graphs.push((i, Graph::plot(panel, &results)));
                String::new() // drawn below, once the annotations are in
            }
        });
    }

    // Each distinct annotation query is sent once; one that fails costs
    // the graphs their event lines, never the render.
    let mut notes: Vec<(String, String)> = Vec::new();
    let mut slot_of = |query: &(String, String)| match notes.iter().position(|n| n == query) {
        Some(slot) => slot,
        None => {
            notes.push(query.clone());
            notes.len() - 1
        }
    };
    let slots: Vec<Option<usize>> =
        graphs.iter().map(|(_, graph)| graph.annotation_query.as_ref().map(&mut slot_of)).collect();
    let answers = query_per_db(source, notes).unwrap_or_default();
    let none = QueryResult::empty();
    for ((i, graph), slot) in graphs.into_iter().zip(slots) {
        let events = slot.and_then(|slot| answers.get(slot)).unwrap_or(&none);
        // Text column isn't numeric; pull times straight from rows.
        let annotations: Vec<(i64, String)> = events
            .series
            .iter()
            .flat_map(|s| &s.values)
            .filter_map(|row| {
                let t = row.first().and_then(|v| v.as_i64())?;
                let text = row.get(1).and_then(|v| v.as_str())?;
                Some((t, text.to_string()))
            })
            .collect();
        texts[i] = graph.draw(panels[i], &annotations, opts);
    }
    Ok(texts)
}

/// Runs `(database, statement)` pairs as one batch per database; answers
/// in the order of the pairs.
fn query_per_db(
    source: &mut dyn QuerySource,
    stmts: Vec<(String, String)>,
) -> Result<Vec<QueryResult>> {
    let mut answers: Vec<Option<QueryResult>> = vec![None; stmts.len()];
    let mut batches: Vec<(String, Vec<usize>, Vec<String>)> = Vec::new();
    for (slot, (db, stmt)) in stmts.into_iter().enumerate() {
        let batch = match batches.iter().position(|(of, ..)| *of == db) {
            Some(i) => &mut batches[i],
            None => {
                batches.push((db, Vec::new(), Vec::new()));
                batches.last_mut().expect("just pushed")
            }
        };
        batch.1.push(slot);
        batch.2.push(stmt);
    }
    for (db, slots, batch) in batches {
        for (slot, answer) in slots.into_iter().zip(source.query_batch(&db, &batch)?) {
            answers[slot] = Some(answer);
        }
    }
    answers
        .into_iter()
        .map(|a| a.ok_or_else(|| Error::protocol("query batch answered fewer statements than sent")))
        .collect()
}

fn render_histogram(panel: &Panel, values: &[f64], opts: RenderOptions) -> String {
    let mut out = format!("== {} ==\n", panel.title);
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let hi = if max > min { max + (max - min) * 1e-9 } else { min + 1.0 };
    let bins = opts.height.max(4);
    let mut h = Histogram::new(min, hi, bins);
    for v in finite {
        h.add(v);
    }
    let peak = h.bins().iter().copied().max().unwrap_or(1).max(1);
    for (center, count) in h.centers() {
        let bar = "#".repeat((count as f64 / peak as f64 * opts.width as f64) as usize);
        out.push_str(&format!("{center:>12.3} | {bar} {count}\n"));
    }
    out
}

/// A graph panel between its two queries: the plotted series are in, the
/// annotation query — bounded by their time extents — is still to run.
struct Graph {
    series: Vec<(String, TimeSeries)>,
    /// `(t_min, t_max, v_min, v_max)` of the finite data; `None` without any.
    extents: Option<(i64, i64, f64, f64)>,
    /// `(database, statement)` fetching the events to draw, when the panel
    /// asks for annotations and has data to draw them over.
    annotation_query: Option<(String, String)>,
}

impl Graph {
    fn plot(panel: &Panel, results: &[QueryResult]) -> Graph {
        let mut series: Vec<(String, TimeSeries)> = Vec::new();
        for (target, result) in panel.targets.iter().zip(results) {
            if result.series.len() > 1 {
                // GROUP BY tag queries: one plotted series per group.
                for (tag, ts) in TimeSeries::per_tag(result, "hostname", &target.column) {
                    let label =
                        if tag.is_empty() { target.alias.clone() } else { tag.to_string() };
                    series.push((label, ts));
                }
            } else {
                series.push((
                    target.alias.clone(),
                    TimeSeries::from_result(result, &target.column),
                ));
            }
        }
        series.retain(|(_, ts)| !ts.is_empty());

        // Global extents.
        let (mut t_min, mut t_max) = (i64::MAX, i64::MIN);
        let (mut v_min, mut v_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, ts) in &series {
            for &(t, v) in &ts.points {
                t_min = t_min.min(t.nanos());
                t_max = t_max.max(t.nanos());
                if v.is_finite() {
                    v_min = v_min.min(v);
                    v_max = v_max.max(v);
                }
            }
        }
        if !v_min.is_finite() {
            return Graph { series, extents: None, annotation_query: None };
        }
        if v_max <= v_min {
            v_max = v_min + 1.0;
        }
        if t_max <= t_min {
            t_max = t_min + 1;
        }
        // Include zero in the axis when close (charts read better).
        if v_min > 0.0 && v_min < 0.25 * v_max {
            v_min = 0.0;
        }

        // Event annotations: dashed vertical lines where the panel's own
        // events fall — those its first target's `tag = 'v'` predicates
        // admit, within the target's time bounds. Without bounds the window
        // extends a little past the data so begin/end events sent just
        // outside the sampled range (Fig. 3's bracketing events) still show.
        let annotation_query = panel.annotation_measurement.as_ref().zip(panel.targets.first()).map(
            |(measurement, target)| {
                let mut conditions = match Statement::parse(&target.query) {
                    Ok(Statement::Select(select)) => select.conditions,
                    _ => Vec::new(),
                };
                conditions.retain(|c| !matches!(c, Condition::TagNe(..)));
                if conditions.iter().all(|c| matches!(c, Condition::TagEq(..))) {
                    let margin = ((t_max - t_min) / 10).max(1);
                    conditions.push(Condition::TimeGe(TimeValue::Abs(t_min.saturating_sub(margin))));
                    conditions.push(Condition::TimeLe(TimeValue::Abs(t_max.saturating_add(margin))));
                }
                let events = Select {
                    projections: vec![Projection::Field("text".into())],
                    measurement: measurement.clone(),
                    conditions,
                    ..Select::default()
                };
                (target.db.clone(), events.render())
            },
        );
        Graph { series, extents: Some((t_min, t_max, v_min, v_max)), annotation_query }
    }

    fn draw(&self, panel: &Panel, annotations: &[(i64, String)], opts: RenderOptions) -> String {
        let series = &self.series;
        let mut out = format!("== {} ==", panel.title);
        if !panel.unit.is_empty() {
            out.push_str(&format!("  [{}]", panel.unit));
        }
        out.push('\n');
        if series.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        let Some((t_min, t_max, v_min, v_max)) = self.extents else {
            out.push_str("(no finite data)\n");
            return out;
        };

        let (w, h) = (opts.width.max(16), opts.height.max(4));
        let mut grid = vec![vec![' '; w]; h];
        let col_of = |t: i64| -> usize {
            let c = ((t - t_min) as f64 / (t_max - t_min) as f64) * (w - 1) as f64;
            (c.round().max(0.0) as usize).min(w - 1) // out-of-range events clamp
        };
        let row_of = |v: f64| -> usize {
            let frac = (v - v_min) / (v_max - v_min);
            ((1.0 - frac) * (h - 1) as f64).round() as usize
        };
        for (t, _) in annotations {
            let c = col_of(*t);
            for (r, grid_row) in grid.iter_mut().enumerate() {
                if r % 2 == 0 {
                    grid_row[c] = '¦';
                }
            }
        }
        // Series markers (drawn after annotations so data wins the cell).
        for (si, (_, ts)) in series.iter().enumerate() {
            let marker = MARKERS[si % MARKERS.len()];
            for &(t, v) in &ts.points {
                if !v.is_finite() {
                    continue;
                }
                grid[row_of(v)][col_of(t.nanos())] = marker;
            }
        }

        // Compose with a y-axis gutter.
        for (r, grid_row) in grid.iter().enumerate() {
            let label = if r % 3 == 0 || r == h - 1 {
                let v = v_max - (v_max - v_min) * r as f64 / (h - 1) as f64;
                format!("{v:>10.2}")
            } else {
                " ".repeat(10)
            };
            out.push_str(&label);
            out.push_str(" |");
            out.extend(grid_row.iter());
            out.push('\n');
        }
        out.push_str(&" ".repeat(10));
        out.push_str(" +");
        out.push_str(&"-".repeat(w));
        out.push('\n');
        out.push_str(&format!(
            "{:>12}{}{:>w$}\n",
            Timestamp(t_min).to_string(),
            " ".repeat(2),
            Timestamp(t_max).to_string(),
            w = w.saturating_sub(14)
        ));
        // Legend.
        for (si, (label, ts)) in series.iter().enumerate() {
            out.push_str(&format!(
                "  {} {}  (n={})\n",
                MARKERS[si % MARKERS.len()],
                label,
                ts.len()
            ));
        }
        for (t, text) in annotations {
            out.push_str(&format!("  ¦ {} @ {}\n", text, Timestamp(*t)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Target;
    use lms_influx::Influx;
    use lms_util::Clock;

    fn fixture() -> Influx {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(1000))).unwrap();
        let mut batch = String::new();
        for s in 0..60 {
            let v = (s as f64 / 10.0).sin() * 50.0 + 100.0;
            batch.push_str(&format!("m,hostname=h1 value={v} {}\n", s * 1_000_000_000i64));
        }
        batch.push_str("events,hostname=h1 text=\"run start\" 5000000000\n");
        batch.push_str("events,hostname=h1 text=\"run end\" 55000000000\n");
        ix.write_lines("lms", &batch, Default::default()).unwrap();
        ix
    }

    fn graph_panel() -> Panel {
        Panel {
            annotation_measurement: Some("events".into()),
            ..Panel::graph(
                "Pressure",
                Target {
                    db: "lms".into(),
                    query: "SELECT value FROM m WHERE hostname = 'h1'".into(),
                    alias: "h1".into(),
                    column: "value".into(),
                },
                "units",
            )
        }
    }

    #[test]
    fn graph_renders_axes_markers_and_annotations() {
        let mut ix = fixture();
        let text = render_panel(&graph_panel(), &mut ix, RenderOptions::default()).unwrap();
        assert!(text.contains("== Pressure ==  [units]"));
        assert!(text.contains('*'), "series markers present");
        assert!(text.contains('¦'), "annotation lines present");
        assert!(text.contains("run start"));
        assert!(text.contains("(n=60)"));
        // Y-axis labels include the data range.
        assert!(text.contains("150") || text.contains("149"), "{text}");
        let plot_rows = text.lines().filter(|l| l.contains('|')).count();
        assert!(plot_rows >= 12);
    }

    #[test]
    fn graph_without_data() {
        let mut ix = fixture();
        let panel = Panel::graph(
            "Empty",
            Target {
                db: "lms".into(),
                query: "SELECT value FROM ghost".into(),
                alias: "x".into(),
                column: "value".into(),
            },
            "",
        );
        let text = render_panel(&panel, &mut ix, RenderOptions::default()).unwrap();
        assert!(text.contains("(no data)"));
    }

    #[test]
    fn group_by_hostname_renders_multiple_series() {
        let ix = Influx::new(Clock::simulated(Timestamp::from_secs(100))).unwrap();
        ix.write_lines(
            "lms",
            "m,hostname=h1 value=1 1000000000\nm,hostname=h2 value=2 1000000000\n\
             m,hostname=h1 value=3 2000000000\nm,hostname=h2 value=4 2000000000",
            Default::default(),
        )
        .unwrap();
        let panel = Panel::graph(
            "Multi",
            Target {
                db: "lms".into(),
                query: "SELECT mean(value) FROM m WHERE time >= 0 AND time <= 3000000000 GROUP BY time(1s), hostname".into(),
                alias: "all".into(),
                column: "mean".into(),
            },
            "",
        );
        let mut src = ix;
        let text = render_panel(&panel, &mut src, RenderOptions::default()).unwrap();
        assert!(text.contains("  * h1"));
        assert!(text.contains("  o h2"));
    }

    #[test]
    fn singlestat_and_text_panels() {
        let mut ix = fixture();
        let p = Panel {
            kind: PanelKind::SingleStat,
            ..Panel::graph(
                "Last value",
                Target {
                    db: "lms".into(),
                    query: "SELECT last(value) FROM m".into(),
                    alias: "m".into(),
                    column: "last".into(),
                },
                "u",
            )
        };
        let text = render_panel(&p, &mut ix, RenderOptions::default()).unwrap();
        assert!(text.contains("m: "), "{text}");
        let t = Panel::text("Header", "job is healthy");
        let text = render_panel(&t, &mut ix, RenderOptions::default()).unwrap();
        assert!(text.contains("job is healthy"));
    }

    #[test]
    fn histogram_panel() {
        let mut ix = fixture();
        let p = Panel {
            kind: PanelKind::Histogram,
            ..Panel::graph(
                "Value histogram",
                Target {
                    db: "lms".into(),
                    query: "SELECT value FROM m".into(),
                    alias: "m".into(),
                    column: "value".into(),
                },
                "",
            )
        };
        let text = render_panel(&p, &mut ix, RenderOptions::default()).unwrap();
        assert!(text.contains('#'));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn sparklines() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[5.0, 5.0]).chars().count(), 2);
    }
}
