//! The owned [`Point`] type: one measurement sample or event.
//!
//! A point is the unit of data in LMS: a measurement name, a sorted tag set,
//! one or more typed fields, and an optional nanosecond timestamp. Metrics
//! carry numeric fields; *events* (paper Sec. III-C: "strings as input
//! values representing ... events") carry [`FieldValue::Text`] fields and are
//! rendered as dashed annotation lines by the dashboard (paper Fig. 3).

use crate::serialize;

/// A typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// 64-bit float — serialized bare: `1.5`.
    Float(f64),
    /// 64-bit signed integer — serialized with the `i` suffix: `3i`.
    Integer(i64),
    /// Boolean — serialized as `true`/`false`.
    Boolean(bool),
    /// String — serialized quoted: `"text"`. Used for events.
    Text(String),
}

impl FieldValue {
    /// Numeric view: floats and integers as `f64`, booleans as 0/1,
    /// strings as `None`. The analysis layer works on this view.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            FieldValue::Float(v) => Some(*v),
            FieldValue::Integer(v) => Some(*v as f64),
            FieldValue::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            FieldValue::Text(_) => None,
        }
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Integer(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Boolean(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Text(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Text(v)
    }
}

/// One sample: measurement, tags, fields, optional timestamp.
///
/// Tags are kept sorted by key (InfluxDB canonical form); inserting a
/// duplicate tag key replaces the value. Field order is insertion order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Point {
    measurement: String,
    tags: Vec<(String, String)>,
    fields: Vec<(String, FieldValue)>,
    timestamp: Option<i64>,
}

impl Point {
    /// Creates a point for `measurement` with no tags or fields yet.
    pub fn new(measurement: impl Into<String>) -> Self {
        Point { measurement: measurement.into(), ..Default::default() }
    }

    /// The measurement name.
    pub fn measurement(&self) -> &str {
        &self.measurement
    }

    /// Adds (or replaces) a tag, keeping tags sorted by key.
    pub fn add_tag(&mut self, key: impl Into<String>, value: impl Into<String>) -> &mut Self {
        let key = key.into();
        let value = value.into();
        match self.tags.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.tags[i].1 = value,
            Err(i) => self.tags.insert(i, (key, value)),
        }
        self
    }

    /// Adds a field. Duplicate field keys are allowed by the wire protocol;
    /// the last one wins on the database side, so we replace here too.
    pub fn add_field_value(&mut self, key: impl Into<String>, value: FieldValue) -> &mut Self {
        let key = key.into();
        if let Some(slot) = self.fields.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.fields.push((key, value));
        }
        self
    }

    /// Adds a field from any convertible value (`f64`, `i64`, `bool`, `&str`).
    pub fn add_field(&mut self, key: impl Into<String>, value: impl Into<FieldValue>) -> &mut Self {
        self.add_field_value(key, value.into())
    }

    /// Sets the timestamp (nanoseconds since the Unix epoch).
    pub fn set_timestamp(&mut self, nanos: i64) -> &mut Self {
        self.timestamp = Some(nanos);
        self
    }

    /// The timestamp, if set.
    pub fn timestamp(&self) -> Option<i64> {
        self.timestamp
    }

    /// Tag lookup by key.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.tags[i].1.as_str())
    }

    /// All tags, sorted by key.
    pub fn tags(&self) -> &[(String, String)] {
        &self.tags
    }

    /// Field lookup by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All fields, in insertion order.
    pub fn fields(&self) -> &[(String, FieldValue)] {
        &self.fields
    }

    /// True if the point has at least one field (protocol requirement).
    pub fn is_valid(&self) -> bool {
        !self.measurement.is_empty() && !self.fields.is_empty()
    }

    /// Serializes to a single protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(64);
        serialize::write_point(self, &mut out);
        out
    }

    /// The canonical series key `measurement,tag1=v1,tag2=v2` used by the
    /// database's series index. Escaped exactly like the wire form so
    /// distinct series never collide.
    pub fn series_key(&self) -> String {
        let mut out = String::with_capacity(32);
        serialize::write_series_key(&self.measurement, &self.tags, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_stay_sorted_and_replace() {
        let mut p = Point::new("m");
        p.add_tag("z", "1").add_tag("a", "2").add_tag("m", "3");
        let keys: Vec<_> = p.tags().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a", "m", "z"]);
        p.add_tag("m", "override");
        assert_eq!(p.tag("m"), Some("override"));
        assert_eq!(p.tags().len(), 3);
    }

    #[test]
    fn fields_replace_on_duplicate_key() {
        let mut p = Point::new("m");
        p.add_field("v", 1.0).add_field("v", 2.0);
        assert_eq!(p.fields().len(), 1);
        assert_eq!(p.field("v"), Some(&FieldValue::Float(2.0)));
    }

    #[test]
    fn validity() {
        let mut p = Point::new("m");
        assert!(!p.is_valid());
        p.add_field("v", 1.0);
        assert!(p.is_valid());
        assert!(!Point::new("").is_valid());
    }

    #[test]
    fn field_value_views() {
        assert_eq!(FieldValue::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(FieldValue::Integer(-3).as_f64(), Some(-3.0));
        assert_eq!(FieldValue::Boolean(true).as_f64(), Some(1.0));
        assert_eq!(FieldValue::Text("x".into()).as_f64(), None);
    }

    #[test]
    fn series_key_is_canonical() {
        let mut a = Point::new("cpu");
        a.add_tag("b", "2").add_tag("a", "1").add_field("v", 0.0);
        let mut b = Point::new("cpu");
        b.add_tag("a", "1").add_tag("b", "2").add_field("v", 9.0);
        assert_eq!(a.series_key(), b.series_key());
        assert_eq!(a.series_key(), "cpu,a=1,b=2");
    }

    #[test]
    fn series_key_escapes_collisions() {
        // Without escaping, ("a", "1,b=2") would collide with {a:1, b:2}.
        let mut a = Point::new("cpu");
        a.add_tag("a", "1,b=2").add_field("v", 0.0);
        let mut b = Point::new("cpu");
        b.add_tag("a", "1").add_tag("b", "2").add_field("v", 0.0);
        assert_ne!(a.series_key(), b.series_key());
    }
}
