//! Scrape of the Prometheus text exposition served at `GET /v1/metrics` by
//! both `r2d2 serve` and `r2d2 dispatch`.

use std::collections::BTreeMap;

/// Every `name value` sample line, keyed by metric name. Comment lines,
/// blank lines and lines whose value is not a number are skipped.
pub fn scrape(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(name), Some(value)) = (parts.next(), parts.next()) else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(name.to_string(), v);
        }
    }
    out
}

/// One metric's value, or an error naming the missing metric.
pub fn require(samples: &BTreeMap<String, f64>, name: &str) -> Result<f64, String> {
    samples
        .get(name)
        .copied()
        .ok_or_else(|| format!("metric {name} missing from /v1/metrics"))
}
