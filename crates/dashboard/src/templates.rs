//! Dashboard/row/panel templates and `$variable` instantiation.
//!
//! "The dashboard templates can be created in Grafana, and the resulting
//! JSON-based configuration is saved in the template location." Templates
//! here are dashboard-model JSON with `$jobid`, `$user`, `$hosts`, `$db`,
//! `$from`, `$to` placeholders. `$hosts` is the job's host set as one
//! predicate ([`lms_analysis::JobScope::hosts`]), so a panel reads all the
//! job's hosts in one statement, `GROUP BY hostname`, and draws one line
//! per host; the Viewer Agent instantiates each panel template once per
//! job and composes rows into the job dashboard.

use crate::model::{Panel, Row};
use lms_util::{Error, Json, Result};

/// Substitutes `$name` placeholders in every string of a JSON tree.
pub fn substitute(json: &Json, vars: &[(&str, &str)]) -> Json {
    match json {
        Json::Str(s) => {
            let mut out = s.clone();
            for (k, v) in vars {
                out = out.replace(&format!("${k}"), v);
            }
            Json::Str(out)
        }
        Json::Arr(items) => Json::Arr(items.iter().map(|i| substitute(i, vars)).collect()),
        Json::Obj(members) => Json::Obj(
            members.iter().map(|(k, v)| (k.clone(), substitute(v, vars))).collect(),
        ),
        other => other.clone(),
    }
}

/// A named collection of templates (the "template location").
#[derive(Debug, Default)]
pub struct TemplateStore {
    /// Panel templates by name (JSON in the panel schema).
    panels: Vec<(String, Json)>,
    /// Row templates: row title template + panel template names.
    rows: Vec<(String, RowTemplate)>,
}

/// A row template: title plus the panel templates to instantiate, and the
/// measurement whose presence on the job's hosts triggers the row.
#[derive(Debug, Clone)]
pub struct RowTemplate {
    /// Row title (placeholders allowed).
    pub title: String,
    /// Names of panel templates to instantiate.
    pub panel_templates: Vec<String>,
    /// The row is included iff one of the job's hosts holds this
    /// measurement.
    pub requires_measurement: String,
}

impl TemplateStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The built-in template set covering the standard LMS metrics.
    pub fn builtin() -> Self {
        let mut store = TemplateStore::new();
        store.add_panel_json(
            "cpu_busy",
            r#"{"title":"CPU busy","type":"graph","unit":"fraction",
                "targets":[{"db":"$db","query":"SELECT mean(busy) FROM cpu_total WHERE $hosts AND time >= $from AND time <= $to GROUP BY time(1m), hostname","alias":"busy","column":"mean"}],
                "annotations":"events"}"#,
        ).expect("builtin template");
        store.add_panel_json(
            "load",
            r#"{"title":"Load","type":"graph","unit":"",
                "targets":[{"db":"$db","query":"SELECT mean(load1) FROM load WHERE $hosts AND time >= $from AND time <= $to GROUP BY time(1m), hostname","alias":"load1","column":"mean"}]}"#,
        ).expect("builtin template");
        store.add_panel_json(
            "flops_dp",
            r#"{"title":"DP FLOP rate","type":"graph","unit":"MFLOP/s",
                "targets":[{"db":"$db","query":"SELECT mean(dp_mflop_s) FROM hpm_flops_dp WHERE $hosts AND time >= $from AND time <= $to GROUP BY time(1m), hostname","alias":"dp_mflop_s","column":"mean"}],
                "annotations":"events"}"#,
        ).expect("builtin template");
        store.add_panel_json(
            "membw",
            r#"{"title":"Memory bandwidth","type":"graph","unit":"MBytes/s",
                "targets":[{"db":"$db","query":"SELECT mean(memory_bandwidth_mbytes_s) FROM hpm_mem WHERE $hosts AND time >= $from AND time <= $to GROUP BY time(1m), hostname","alias":"memory_bandwidth_mbytes_s","column":"mean"}],
                "annotations":"events"}"#,
        ).expect("builtin template");
        store.add_panel_json(
            "memory",
            r#"{"title":"Memory used","type":"graph","unit":"fraction",
                "targets":[{"db":"$db","query":"SELECT mean(used_frac) FROM memory WHERE $hosts AND time >= $from AND time <= $to GROUP BY time(1m), hostname","alias":"used_frac","column":"mean"}]}"#,
        ).expect("builtin template");
        store.add_panel_json(
            "network",
            r#"{"title":"Network","type":"graph","unit":"B/s",
                "targets":[{"db":"$db","query":"SELECT mean(rx_bytes_per_s) FROM network WHERE $hosts AND time >= $from AND time <= $to GROUP BY time(1m), hostname","alias":"rx","column":"mean"}]}"#,
        ).expect("builtin template");

        store.add_row(RowTemplate {
            title: "CPU".into(),
            panel_templates: vec!["cpu_busy".into(), "load".into()],
            requires_measurement: "cpu_total".into(),
        });
        store.add_row(RowTemplate {
            title: "FLOPS".into(),
            panel_templates: vec!["flops_dp".into()],
            requires_measurement: "hpm_flops_dp".into(),
        });
        store.add_row(RowTemplate {
            title: "Memory".into(),
            panel_templates: vec!["membw".into(), "memory".into()],
            requires_measurement: "hpm_mem".into(),
        });
        store.add_row(RowTemplate {
            title: "Network".into(),
            panel_templates: vec!["network".into()],
            requires_measurement: "network".into(),
        });
        store
    }

    /// Registers a panel template from JSON text.
    pub fn add_panel_json(&mut self, name: &str, json_text: &str) -> Result<()> {
        let json = Json::parse(json_text)?;
        // Validate it parses as a panel once placeholders are neutralized.
        let probe = substitute(
            &json,
            &[("db", "x"), ("hosts", "h"), ("from", "0"), ("to", "1"), ("jobid", "0"),
              ("user", "u"), ("measurement", "m")],
        );
        Panel::from_json(&probe)
            .map_err(|e| Error::config(format!("panel template `{name}`: {e}")))?;
        self.panels.retain(|(n, _)| n != name);
        self.panels.push((name.to_string(), json));
        Ok(())
    }

    /// Registers a row template.
    pub fn add_row(&mut self, row: RowTemplate) {
        self.rows.push((row.title.clone(), row));
    }

    /// All row templates, in registration order.
    pub fn rows(&self) -> impl Iterator<Item = &RowTemplate> {
        self.rows.iter().map(|(_, r)| r)
    }

    /// Instantiates one panel template.
    pub fn instantiate_panel(&self, name: &str, vars: &[(&str, &str)]) -> Result<Panel> {
        let (_, template) = self
            .panels
            .iter()
            .find(|(n, _)| n == name)
            .ok_or_else(|| Error::not_found(format!("panel template `{name}`")))?;
        Panel::from_json(&substitute(template, vars))
    }

    /// Instantiates a row template: each of its panels once.
    pub fn instantiate_row(&self, row: &RowTemplate, vars: &[(&str, &str)]) -> Result<Row> {
        let panels = row.panel_templates.iter().map(|name| self.instantiate_panel(name, vars));
        Ok(Row { title: row.title.clone(), panels: panels.collect::<Result<_>>()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PanelKind;
    use lms_util::Timestamp;

    #[test]
    fn substitution_descends_the_tree() {
        let j = Json::parse(r#"{"a":"job $jobid","b":[{"c":"$db and $db"}],"n":5}"#).unwrap();
        let s = substitute(&j, &[("jobid", "42"), ("db", "lms")]);
        assert_eq!(s.get("a").unwrap().as_str(), Some("job 42"));
        assert_eq!(s.get("b").unwrap().idx(0).unwrap().get("c").unwrap().as_str(),
            Some("lms and lms"));
        assert_eq!(s.get("n").unwrap().as_i64(), Some(5));
    }

    #[test]
    fn builtin_store_instantiates_panels() {
        let store = TemplateStore::builtin();
        let hosts = ["h3".to_string(), "o'brien".to_string()];
        let scope = lms_analysis::JobScope { hosts: &hosts, start: Timestamp(100), end: Timestamp(200) };
        let vars = [("db", "lms"), ("hosts", &scope.hosts()), ("from", "100"), ("to", "200")];
        let p = store.instantiate_panel("flops_dp", &vars).unwrap();
        assert_eq!(p.title, "DP FLOP rate");
        assert_eq!(p.kind, PanelKind::Graph);
        let query = &p.targets[0].query;
        assert!(query.contains(r#"WHERE ("hostname" = 'h3' OR "hostname" = 'o''brien') AND "#), "{query}");
        assert!(query.contains("time >= 100 AND time <= 200 GROUP BY time(1m), hostname"), "{query}");
        lms_influx::Statement::parse(query).unwrap();
        assert_eq!(p.annotation_measurement.as_deref(), Some("events"));
    }

    #[test]
    fn row_instantiation_once_per_job() {
        let store = TemplateStore::builtin();
        let row_template = store
            .rows()
            .find(|r| r.requires_measurement == "cpu_total")
            .unwrap()
            .clone();
        let vars = [("db", "lms"), ("hosts", "(hostname = 'h1' OR hostname = 'h2')"), ("from", "0"), ("to", "1")];
        let row = store.instantiate_row(&row_template, &vars).unwrap();
        // 2 panel templates, each reading both hosts.
        let titles: Vec<&str> = row.panels.iter().map(|p| p.title.as_str()).collect();
        assert_eq!(titles, ["CPU busy", "Load"]);
        assert!(row.panels.iter().all(|p| p.targets[0].query.contains("'h1' OR hostname = 'h2'")));
    }

    #[test]
    fn custom_template_registration_and_override() {
        let mut store = TemplateStore::new();
        store
            .add_panel_json(
                "custom",
                r#"{"title":"$measurement","type":"singlestat","targets":[{"db":"$db","query":"SELECT last(value) FROM $measurement","column":"last"}]}"#,
            )
            .unwrap();
        let p = store
            .instantiate_panel("custom", &[("db", "u"), ("measurement", "minimd_pressure")])
            .unwrap();
        assert_eq!(p.kind, PanelKind::SingleStat);
        assert_eq!(p.title, "minimd_pressure");
        // Re-registering replaces.
        store
            .add_panel_json("custom", r#"{"title":"v2","type":"text","content":"x"}"#)
            .unwrap();
        let p = store.instantiate_panel("custom", &[]).unwrap();
        assert_eq!(p.kind, PanelKind::Text);
    }

    #[test]
    fn invalid_template_rejected() {
        let mut store = TemplateStore::new();
        assert!(store.add_panel_json("bad", "not json at all").is_err());
        assert!(store
            .add_panel_json("bad", r#"{"title":"x","type":"hologram"}"#)
            .is_err());
        assert!(store.instantiate_panel("missing", &[]).is_err());
    }
}
