//! The output check: a committed digest per spec of every record the
//! benchmark can produce, plus the Small-scale modelled aggregates.
//!
//! A digest covers what a figure reads from a record (`Stats`, the energy
//! breakdown, `used_r2d2` and the Fig. 4 `IdealCounts`) and nothing that
//! varies between runs (`wall_ms`, `cached`). Every run of every workload
//! checks each record it sees against `golden/records.digest`; regenerate
//! that file with `--bless` only when the simulator's results are meant to
//! change.

use std::collections::HashMap;

use r2d2_harness::json::Value;
use r2d2_harness::sets::{self, COMPARISON_MODELS};
use r2d2_harness::{JobSpec, ModelSpec, RunRecord};
use r2d2_workloads::Size;

use crate::Outcome;

/// The committed digests (see the module docs).
pub const GOLDEN: &str = include_str!("../golden/records.digest");

/// Fig. 12's R2D2 average warp-instruction reduction in the paper (%).
pub const PAPER_REDUCTION_PCT: f64 = 28.0;
/// Fig. 13's R2D2 geomean speedup in the paper.
pub const PAPER_SPEEDUP: f64 = 1.25;
/// The same two aggregates at `Size::Full`, as EXPERIMENTS.md records them.
pub const FULL_REDUCTION_PCT: f64 = 27.7;
/// See [`FULL_REDUCTION_PCT`].
pub const FULL_SPEEDUP: f64 = 1.07;

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a record's results (see the module docs for what it covers).
pub fn record_digest(rec: &RunRecord) -> u64 {
    let full = rec.to_json();
    let kept: Vec<(String, Value)> = ["stats", "energy", "used_r2d2", "ideal"]
        .iter()
        .map(|k| (k.to_string(), full.get(k).cloned().unwrap_or(Value::Null)))
        .collect();
    fnv1a(Value::Obj(kept).to_json().as_bytes())
}

/// Every named figure set at `Size::Small`, deduplicated by content hash in
/// `SET_NAMES` order: the job list of `r2d2 sweep run all --size small`.
pub fn sweep_specs() -> Vec<JobSpec> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for name in sets::SET_NAMES {
        for spec in sets::set(name, Size::Small).expect("named set exists") {
            if seen.insert(spec.content_hash()) {
                out.push(spec);
            }
        }
    }
    out
}

/// The `fig12` Small set (the whole zoo under the five machine models), in
/// `sets::comparison` order.
pub fn fleet_specs() -> Vec<JobSpec> {
    sets::comparison(Size::Small)
}

/// R2D2's modelled aggregates over the `fig12` set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregates {
    /// Average per-workload warp-instruction reduction vs. baseline (%).
    pub reduction_pct: f64,
    /// Geomean per-workload speedup (baseline cycles / R2D2 cycles).
    pub speedup: f64,
}

impl Aggregates {
    /// From `fig12` records keyed by spec content hash; `None` when any
    /// baseline or R2D2 record is missing.
    pub fn of(records: &HashMap<u64, &RunRecord>) -> Option<Aggregates> {
        let specs = fleet_specs();
        let nm = COMPARISON_MODELS.len();
        let r2 = COMPARISON_MODELS
            .iter()
            .position(|m| *m == ModelSpec::R2d2)
            .expect("R2D2 is a comparison model");
        let (mut red_sum, mut ln_sum, mut n) = (0.0, 0.0, 0.0);
        for w in specs.chunks(nm) {
            let base = records.get(&w[0].content_hash())?;
            let r2d2 = records.get(&w[r2].content_hash())?;
            let b = base.stats.warp_instrs as f64;
            red_sum += if b == 0.0 {
                0.0
            } else {
                100.0 * (b - r2d2.stats.warp_instrs as f64) / b
            };
            ln_sum += (base.stats.cycles as f64 / r2d2.stats.cycles as f64).ln();
            n += 1.0;
        }
        Some(Aggregates {
            reduction_pct: red_sum / n,
            speedup: (ln_sum / n).exp(),
        })
    }

    /// Canonical text form stored in the golden file (fixed decimals, so the
    /// comparison is exact).
    pub fn canonical(&self) -> String {
        format!(
            "aggregate r2d2_warp_reduction_pct={:.6} r2d2_geomean_speedup={:.6}",
            self.reduction_pct, self.speedup
        )
    }

    /// The report line: Small-scale values beside the paper and full size.
    pub fn report_line(&self) -> String {
        format!(
            "modelled aggregates at Size::Small (a different scale; not comparable): \
             R2D2 warp-instr reduction {:.1}% (paper {PAPER_REDUCTION_PCT}%, full size \
             {FULL_REDUCTION_PCT}%), geomean speedup {:.3}x (paper {PAPER_SPEEDUP}x, full size \
             {FULL_SPEEDUP}x)",
            self.reduction_pct, self.speedup
        )
    }
}

/// The parsed golden file.
#[derive(Debug, Clone)]
pub struct Golden {
    by_hash: HashMap<u64, u64>,
    aggregates: String,
}

impl Golden {
    /// Parse the committed file.
    pub fn load() -> Result<Golden, String> {
        Golden::parse(GOLDEN)
    }

    /// Parse golden-file text: `<spec hash> <digest> <label>` lines, one
    /// `aggregate ...` line, `#` comments.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut by_hash = HashMap::new();
        let mut aggregates = String::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with("aggregate ") {
                aggregates = line.to_string();
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(h), Some(d)) = (parts.next(), parts.next()) else {
                return Err(format!("golden line {}: {line:?}", i + 1));
            };
            let parse =
                |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("line {}: {e}", i + 1));
            by_hash.insert(parse(h)?, parse(d)?);
        }
        if aggregates.is_empty() {
            return Err("golden file has no aggregate line".into());
        }
        Ok(Golden {
            by_hash,
            aggregates,
        })
    }

    /// Number of specs with a committed digest.
    pub fn len(&self) -> usize {
        self.by_hash.len()
    }

    /// Whether the file holds no digests.
    pub fn is_empty(&self) -> bool {
        self.by_hash.is_empty()
    }

    /// Check one record against the digest committed for its spec.
    pub fn check(&self, spec: &JobSpec, rec: &RunRecord) -> Result<(), String> {
        let want = self
            .by_hash
            .get(&spec.content_hash())
            .ok_or_else(|| format!("{}: no committed digest", spec.label()))?;
        let got = record_digest(rec);
        if got == *want {
            Ok(())
        } else {
            Err(format!(
                "{}: record digest {got:016x} != committed {want:016x}",
                spec.label()
            ))
        }
    }

    /// Recompute the aggregates from `records`, check them against the
    /// committed line, and report them.
    pub fn check_aggregates(&self, records: &HashMap<u64, &RunRecord>, out: &mut Outcome) {
        let Some(agg) = Aggregates::of(records) else {
            out.error("fig12 records missing: no aggregates to check".into());
            return;
        };
        if agg.canonical() != self.aggregates {
            out.error(format!(
                "aggregates {:?} != committed {:?}",
                agg.canonical(),
                self.aggregates
            ));
        }
        out.line(agg.report_line());
    }
}

/// `records` keyed by the content hash of their `specs` (same order).
pub fn by_hash<'a>(specs: &[JobSpec], records: &'a [RunRecord]) -> HashMap<u64, &'a RunRecord> {
    specs
        .iter()
        .map(JobSpec::content_hash)
        .zip(records)
        .collect()
}

/// Render a golden file for `specs` and their `records` (same order).
pub fn render(specs: &[JobSpec], records: &[RunRecord]) -> Result<String, String> {
    let agg = Aggregates::of(&by_hash(specs, records))
        .ok_or("fig12 records missing from the blessed set")?;
    let mut out = String::from(
        "# Record digests of every spec of `r2d2 sweep run all --size small`.\n\
         # <spec content hash> <record digest> <label>; regenerate with --bless.\n",
    );
    out.push_str(&agg.canonical());
    out.push('\n');
    for (spec, rec) in specs.iter().zip(records) {
        out.push_str(&format!(
            "{} {:016x} {}\n",
            spec.hash_hex(),
            record_digest(rec),
            spec.label().replace(' ', "_")
        ));
    }
    Ok(out)
}

/// Parse a record out of a service response body (`{"record": {...}}`).
pub fn record_from_body(body: &Value) -> Option<RunRecord> {
    RunRecord::from_json(body.get("record")?)
}
