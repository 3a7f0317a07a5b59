//! INI-style configuration.
//!
//! Every LMS daemon (host agent, router, DB, viewer agent) reads a plain
//! `key = value` configuration with `[sections]`, comments (`#` or `;`) and
//! duplicate-key override semantics — the format LIKWID's own tools and most
//! of the classic monitoring daemons (Diamond, Ganglia) use. Parsed entirely
//! in-memory; values are typed lazily via the getter methods.

use crate::error::{Error, Result};
use std::collections::BTreeMap;

/// A parsed configuration: section name → (key → value).
///
/// Keys outside any `[section]` live in the "" (root) section. Sections and
/// keys are stored in sorted order so serialization is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, String>>,
}

impl Config {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parses INI-style text.
    ///
    /// Later duplicate keys override earlier ones (standard INI semantics),
    /// which lets a site drop an override file after the defaults.
    pub fn parse(text: &str) -> Result<Self> {
        let mut cfg = Config::new();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest.strip_suffix(']').ok_or_else(|| {
                    Error::config(format!("line {}: unterminated section header", lineno + 1))
                })?;
                section = name.trim().to_string();
                cfg.sections.entry(section.clone()).or_default();
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                Error::config(format!("line {}: expected `key = value`", lineno + 1))
            })?;
            let key = key.trim();
            if key.is_empty() {
                return Err(Error::config(format!("line {}: empty key", lineno + 1)));
            }
            cfg.sections
                .entry(section.clone())
                .or_default()
                .insert(key.to_string(), value.trim().to_string());
        }
        Ok(cfg)
    }

    /// Sets a value programmatically.
    pub fn set(&mut self, section: &str, key: &str, value: impl Into<String>) {
        self.sections
            .entry(section.to_string())
            .or_default()
            .insert(key.to_string(), value.into());
    }

    /// Raw string lookup.
    pub fn get(&self, section: &str, key: &str) -> Option<&str> {
        self.sections.get(section)?.get(key).map(String::as_str)
    }

    /// String lookup with a default.
    pub fn get_or<'a>(&'a self, section: &str, key: &str, default: &'a str) -> &'a str {
        self.get(section, key).unwrap_or(default)
    }

    /// Typed lookup: integers.
    pub fn get_i64(&self, section: &str, key: &str) -> Result<Option<i64>> {
        self.get(section, key)
            .map(|v| {
                v.parse().map_err(|_| {
                    Error::config(format!("key `{key}` in `[{section}]`: `{v}` is not an integer"))
                })
            })
            .transpose()
    }

    /// Typed lookup: booleans (`true/false`, `yes/no`, `on/off`, `1/0`).
    pub fn get_bool(&self, section: &str, key: &str) -> Result<Option<bool>> {
        self.get(section, key)
            .map(|v| match v.to_ascii_lowercase().as_str() {
                "true" | "yes" | "on" | "1" => Ok(true),
                "false" | "no" | "off" | "0" => Ok(false),
                other => Err(Error::config(format!(
                    "key `{key}` in `[{section}]`: `{other}` is not a boolean"
                ))),
            })
            .transpose()
    }

    /// Comma-separated list lookup (empty items dropped, items trimmed).
    pub fn get_list(&self, section: &str, key: &str) -> Vec<String> {
        self.get(section, key)
            .map(|v| {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// All section names (the root section "" included only if non-empty).
    pub fn sections(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// All `(key, value)` pairs in a section, sorted by key.
    pub fn section(&self, name: &str) -> impl Iterator<Item = (&str, &str)> {
        self.sections
            .get(name)
            .into_iter()
            .flat_map(|m| m.iter().map(|(k, v)| (k.as_str(), v.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# LMS router configuration
listen = 0.0.0.0:8086
[database]
url = http://db:8086
name = lms
batch = 500
timeout = 2.5
per_user = yes
users = alice, bob ,carol,
[publish]
enabled = off
";

    #[test]
    fn parses_sections_and_values() {
        let c = Config::parse(SAMPLE).unwrap();
        assert_eq!(c.get("", "listen"), Some("0.0.0.0:8086"));
        assert_eq!(c.get("database", "name"), Some("lms"));
        assert_eq!(c.get_i64("database", "batch").unwrap(), Some(500));
        assert_eq!(c.get_bool("database", "per_user").unwrap(), Some(true));
        assert_eq!(c.get_bool("publish", "enabled").unwrap(), Some(false));
        assert_eq!(c.get_list("database", "users"), vec!["alice", "bob", "carol"]);
    }

    #[test]
    fn missing_and_defaults() {
        let c = Config::parse(SAMPLE).unwrap();
        assert_eq!(c.get("database", "nope"), None);
        assert_eq!(c.get_or("database", "nope", "dflt"), "dflt");
        assert!(c.get_list("x", "y").is_empty());
    }

    #[test]
    fn duplicate_keys_override() {
        let c = Config::parse("a = 1\na = 2\n").unwrap();
        assert_eq!(c.get("", "a"), Some("2"));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Config::parse("[broken\n").is_err());
        assert!(Config::parse("novalue\n").is_err());
        assert!(Config::parse("= empty key\n").is_err());
    }

    #[test]
    fn typed_errors() {
        let c = Config::parse("[s]\nn = abc\nb = maybe\n").unwrap();
        assert!(c.get_i64("s", "n").is_err());
        assert!(c.get_bool("s", "b").is_err());
    }

    #[test]
    fn set_and_sections_iteration() {
        let mut c = Config::new();
        c.set("db", "name", "lms");
        c.set("db", "batch", "10");
        let pairs: Vec<_> = c.section("db").collect();
        assert_eq!(pairs, vec![("batch", "10"), ("name", "lms")]);
        assert_eq!(c.sections().collect::<Vec<_>>(), vec!["db"]);
    }
}
