//! The dashboard object model and its Grafana-style JSON form.

use lms_util::{Error, Json, Result};

/// What a panel displays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelKind {
    /// Time-series line graph.
    Graph,
    /// Single aggregated number.
    SingleStat,
    /// Text/markdown (the evaluation header uses this).
    Text,
    /// Value histogram.
    Histogram,
}

impl PanelKind {
    fn as_str(self) -> &'static str {
        match self {
            PanelKind::Graph => "graph",
            PanelKind::SingleStat => "singlestat",
            PanelKind::Text => "text",
            PanelKind::Histogram => "histogram",
        }
    }

    fn parse(s: &str) -> Result<Self> {
        Ok(match s {
            "graph" => PanelKind::Graph,
            "singlestat" => PanelKind::SingleStat,
            "text" => PanelKind::Text,
            "histogram" => PanelKind::Histogram,
            other => return Err(Error::protocol(format!("unknown panel type `{other}`"))),
        })
    }
}

/// One query a panel plots.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Database to query.
    pub db: String,
    /// InfluxQL query text.
    pub query: String,
    /// Legend label.
    pub alias: String,
    /// Result column to plot (e.g. `mean` or a raw field name).
    pub column: String,
}

/// One panel.
#[derive(Debug, Clone, PartialEq)]
pub struct Panel {
    /// Display title.
    pub title: String,
    /// Kind of visualization.
    pub kind: PanelKind,
    /// Queries to plot (empty for text panels).
    pub targets: Vec<Target>,
    /// Y-axis unit label.
    pub unit: String,
    /// Static content (text panels).
    pub content: String,
    /// Measurement whose string events annotate the chart as dashed lines
    /// (paper Fig. 3), if any.
    pub annotation_measurement: Option<String>,
}

impl Panel {
    /// A graph panel with one target.
    pub fn graph(title: &str, target: Target, unit: &str) -> Self {
        Panel {
            title: title.to_string(),
            kind: PanelKind::Graph,
            targets: vec![target],
            unit: unit.to_string(),
            content: String::new(),
            annotation_measurement: None,
        }
    }

    /// Parses a panel from its JSON form (one element of a row's
    /// `panels`).
    pub(crate) fn from_json(p: &Json) -> Result<Panel> {
        let kind = PanelKind::parse(p.get("type").and_then(Json::as_str).unwrap_or("graph"))?;
        let mut targets = Vec::new();
        for t in p.get("targets").and_then(Json::as_arr).unwrap_or(&[]) {
            targets.push(Target {
                db: t.get("db").and_then(Json::as_str).unwrap_or("lms").to_string(),
                query: t
                    .get("query")
                    .and_then(Json::as_str)
                    .ok_or_else(|| Error::protocol("target missing query"))?
                    .to_string(),
                alias: t.get("alias").and_then(Json::as_str).unwrap_or("").to_string(),
                column: t.get("column").and_then(Json::as_str).unwrap_or("mean").to_string(),
            });
        }
        Ok(Panel {
            title: p.get("title").and_then(Json::as_str).unwrap_or("").to_string(),
            kind,
            targets,
            unit: p.get("unit").and_then(Json::as_str).unwrap_or("").to_string(),
            content: p.get("content").and_then(Json::as_str).unwrap_or("").to_string(),
            annotation_measurement: p.get("annotations").and_then(Json::as_str).map(String::from),
        })
    }

    /// A text panel.
    pub fn text(title: &str, content: &str) -> Self {
        Panel {
            title: title.to_string(),
            kind: PanelKind::Text,
            targets: Vec::new(),
            unit: String::new(),
            content: content.to_string(),
            annotation_measurement: None,
        }
    }
}

/// One row of panels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    /// Row title.
    pub title: String,
    /// The panels, left to right.
    pub panels: Vec<Panel>,
}

/// A complete dashboard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dashboard {
    /// Dashboard title.
    pub title: String,
    /// Tags (the viewer marks them `lms`, `job`, the job id …).
    pub tags: Vec<String>,
    /// Display time range `(from, to)` in ns since the epoch.
    pub time_range: (i64, i64),
    /// Rows, top to bottom.
    pub rows: Vec<Row>,
}

impl Dashboard {
    /// Serializes to the Grafana-style JSON the agent stores.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(&self.title)),
            ("tags", Json::arr(self.tags.iter().map(Json::str))),
            (
                "time",
                Json::obj([
                    ("from", Json::from(self.time_range.0)),
                    ("to", Json::from(self.time_range.1)),
                ]),
            ),
            (
                "rows",
                Json::arr(self.rows.iter().map(|row| {
                    Json::obj([
                        ("title", Json::str(&row.title)),
                        (
                            "panels",
                            Json::arr(row.panels.iter().map(|p| {
                                let mut obj = vec![
                                    ("title".to_string(), Json::str(&p.title)),
                                    ("type".to_string(), Json::str(p.kind.as_str())),
                                    ("unit".to_string(), Json::str(&p.unit)),
                                    (
                                        "targets".to_string(),
                                        Json::arr(p.targets.iter().map(|t| {
                                            Json::obj([
                                                ("db", Json::str(&t.db)),
                                                ("query", Json::str(&t.query)),
                                                ("alias", Json::str(&t.alias)),
                                                ("column", Json::str(&t.column)),
                                            ])
                                        })),
                                    ),
                                ];
                                if !p.content.is_empty() {
                                    obj.push(("content".to_string(), Json::str(&p.content)));
                                }
                                if let Some(m) = &p.annotation_measurement {
                                    obj.push(("annotations".to_string(), Json::str(m)));
                                }
                                Json::Obj(obj)
                            })),
                        ),
                    ])
                })),
            ),
        ])
    }

    /// Parses a dashboard from its JSON form.
    pub fn from_json(json: &Json) -> Result<Dashboard> {
        let title = json
            .get("title")
            .and_then(Json::as_str)
            .ok_or_else(|| Error::protocol("dashboard missing title"))?
            .to_string();
        let tags = json
            .get("tags")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(|t| t.as_str().map(String::from)).collect())
            .unwrap_or_default();
        let time_range = match json.get("time") {
            Some(t) => (
                t.get("from").and_then(Json::as_i64).unwrap_or(0),
                t.get("to").and_then(Json::as_i64).unwrap_or(0),
            ),
            None => (0, 0),
        };
        let mut rows = Vec::new();
        for row_json in json.get("rows").and_then(Json::as_arr).unwrap_or(&[]) {
            let panels = row_json.get("panels").and_then(Json::as_arr).unwrap_or(&[]);
            rows.push(Row {
                title: row_json.get("title").and_then(Json::as_str).unwrap_or_default().to_string(),
                panels: panels.iter().map(Panel::from_json).collect::<Result<_>>()?,
            });
        }
        Ok(Dashboard { title, tags, time_range, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dashboard {
        Dashboard {
            title: "Job 42 (alice)".into(),
            tags: vec!["lms".into(), "job".into(), "42".into()],
            time_range: (1_000_000_000, 2_000_000_000),
            rows: vec![Row {
                title: "CPU".into(),
                panels: vec![
                    Panel::text("Evaluation", "all good"),
                    Panel {
                        annotation_measurement: Some("events".into()),
                        ..Panel::graph(
                            "DP FLOP rate",
                            Target {
                                db: "lms".into(),
                                query: "SELECT mean(dp_mflop_s) FROM hpm_flops_dp".into(),
                                alias: "h1".into(),
                                column: "mean".into(),
                            },
                            "MFLOP/s",
                        )
                    },
                ],
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let d = sample();
        let json = d.to_json();
        let back = Dashboard::from_json(&json).unwrap();
        assert_eq!(back, d);
        // And through text.
        let reparsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(Dashboard::from_json(&reparsed).unwrap(), d);
    }

    #[test]
    fn panel_kinds_round_trip() {
        for k in
            [PanelKind::Graph, PanelKind::SingleStat, PanelKind::Text, PanelKind::Histogram]
        {
            assert_eq!(PanelKind::parse(k.as_str()).unwrap(), k);
        }
        assert!(PanelKind::parse("piechart3d").is_err());
    }

    #[test]
    fn from_json_validates() {
        assert!(Dashboard::from_json(&Json::parse("{}").unwrap()).is_err());
        let bad = Json::parse(
            r#"{"title":"x","rows":[{"panels":[{"type":"graph","targets":[{"db":"lms"}]}]}]}"#,
        )
        .unwrap();
        assert!(Dashboard::from_json(&bad).is_err(), "target without query");
    }

    #[test]
    fn missing_optional_fields_default() {
        let j = Json::parse(r#"{"title":"minimal"}"#).unwrap();
        let d = Dashboard::from_json(&j).unwrap();
        assert_eq!(d.title, "minimal");
        assert!(d.rows.is_empty());
        assert_eq!(d.time_range, (0, 0));
    }
}
