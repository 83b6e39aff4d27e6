//! Job specifications and their content hashes.
//!
//! A [`JobSpec`] pins down everything that determines a simulation's outcome:
//! which workload, at what size, under which machine model, with which
//! configuration overrides. Two specs with the same [`JobSpec::content_hash`]
//! are guaranteed (modulo a code change, captured by [`SCHEMA_VERSION`]) to
//! produce identical results, which is what makes the on-disk cache sound:
//! the hash is computed over a canonical text encoding of every knob, so any
//! change to any knob changes the cache key.

use r2d2_baselines::{DacFilter, DarsieFilter, DarsieScalarFilter};
use r2d2_core::transform::{gate, transform_with};
use r2d2_core::GenOptions;
use r2d2_sim::{BaselineFilter, GpuConfig, IssueFilter, Launch};
use r2d2_workloads::Size;

use crate::json::{self, Value};

/// Bump when the simulator/transform semantics change in a way that
/// invalidates cached results (the hash preimage includes this).
pub const SCHEMA_VERSION: u32 = 1;

/// Which machine model to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSpec {
    /// Table 1 baseline GPU.
    Baseline,
    /// Decoupled Affine Computation (optimistic).
    Dac,
    /// DARSIE (optimistic).
    Darsie,
    /// DARSIE + generalized scalar pipeline.
    DarsieScalar,
    /// R2D2 with default generator options.
    R2d2,
    /// R2D2 with explicit generator options (ablations).
    R2d2With(GenOptions),
    /// Fig. 4's ideal instruction-count machines (functional, no timing).
    Ideals,
}

impl ModelSpec {
    /// Display name used in reports and records.
    pub fn name(self) -> &'static str {
        match self {
            ModelSpec::Baseline => "Baseline",
            ModelSpec::Dac => "DAC",
            ModelSpec::Darsie => "DARSIE",
            ModelSpec::DarsieScalar => "DARSIE+S",
            ModelSpec::R2d2 | ModelSpec::R2d2With(_) => "R2D2",
            ModelSpec::Ideals => "Ideals",
        }
    }

    /// Canonical text form (hash preimage component; also the CSV `model`
    /// column).
    pub fn canonical(self) -> String {
        match self {
            ModelSpec::Baseline => "baseline".into(),
            ModelSpec::Dac => "dac".into(),
            ModelSpec::Darsie => "darsie".into(),
            ModelSpec::DarsieScalar => "darsie_scalar".into(),
            ModelSpec::R2d2 => "r2d2".into(),
            ModelSpec::R2d2With(o) => {
                format!(
                    "r2d2[max_lr={},share={},scalars={}]",
                    o.max_lr, o.share_groups, o.map_scalars
                )
            }
            ModelSpec::Ideals => "ideals".into(),
        }
    }

    /// The issue filter this model's timing runs go through: the optimistic
    /// DAC and DARSIE front ends, else the stock pipeline (R2D2 changes the
    /// launch instead, and `Ideals` runs no timing loop).
    pub(crate) fn filter(self) -> Box<dyn IssueFilter> {
        match self {
            ModelSpec::Dac => Box::new(DacFilter::new()),
            ModelSpec::Darsie => Box::new(DarsieFilter::new()),
            ModelSpec::DarsieScalar => Box::new(DarsieScalarFilter::new()),
            ModelSpec::Baseline | ModelSpec::R2d2 | ModelSpec::R2d2With(_) | ModelSpec::Ideals => {
                Box::new(BaselineFilter)
            }
        }
    }

    /// The launch this model runs in place of `l`, if any. Both R2D2
    /// variants transform the kernel and keep the result only when it passes
    /// the Sec. 4.4 occupancy gate; every other model runs `l` as it is.
    pub(crate) fn transformed_launch(self, cfg: &GpuConfig, l: &Launch) -> Option<Launch> {
        let opts = match self {
            ModelSpec::R2d2 => GenOptions::default(),
            ModelSpec::R2d2With(opts) => opts,
            _ => return None,
        };
        gate(cfg, l, transform_with(&l.kernel, &opts))
    }

    fn to_json(self) -> Value {
        json::s(&self.canonical())
    }

    fn from_json(v: &Value) -> Option<ModelSpec> {
        let s = v.as_str()?;
        Some(match s {
            "baseline" => ModelSpec::Baseline,
            "dac" => ModelSpec::Dac,
            "darsie" => ModelSpec::Darsie,
            "darsie_scalar" => ModelSpec::DarsieScalar,
            "r2d2" => ModelSpec::R2d2,
            "ideals" => ModelSpec::Ideals,
            s if s.starts_with("r2d2[") && s.ends_with(']') => {
                let body = &s[5..s.len() - 1];
                let mut opts = GenOptions::default();
                for part in body.split(',') {
                    let (k, v) = part.split_once('=')?;
                    match k {
                        "max_lr" => opts.max_lr = v.parse().ok()?,
                        "share" => opts.share_groups = v.parse().ok()?,
                        "scalars" => opts.map_scalars = v.parse().ok()?,
                        _ => return None,
                    }
                }
                ModelSpec::R2d2With(opts)
            }
            _ => return None,
        })
    }
}

impl std::str::FromStr for ModelSpec {
    type Err = String;

    /// Parse a model name: any [`ModelSpec::canonical`] form, plus the CLI
    /// alias `darsie-scalar`.
    fn from_str(s: &str) -> Result<ModelSpec, String> {
        if s == "darsie-scalar" {
            return Ok(ModelSpec::DarsieScalar);
        }
        ModelSpec::from_json(&Value::Str(s.to_string())).ok_or_else(|| {
            format!("unknown model {s:?} (baseline|dac|darsie|darsie-scalar|r2d2|ideals)")
        })
    }
}

/// Optional deviations from the default [`GpuConfig`]. `None` means "leave at
/// default"; only set fields enter the cache key via the canonical encoding
/// (but a default-valued `Some` hashes differently from `None` on purpose —
/// explicit is explicit).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfigOverrides {
    /// Number of SMs (Sec. 5.8 scaling study).
    pub num_sms: Option<u32>,
    /// R2D2 fetch-table latency (Sec. 5.4 sensitivity).
    pub fetch_table: Option<u64>,
    /// R2D2 register-id calculation latency (Sec. 5.4).
    pub regid_calc: Option<u64>,
    /// R2D2 `%lr` addition latency (Sec. 5.4).
    pub lr_add: Option<u64>,
}

impl ConfigOverrides {
    /// Produce the effective [`GpuConfig`] for this job.
    pub fn apply(&self) -> GpuConfig {
        let mut cfg = GpuConfig::default();
        if let Some(n) = self.num_sms {
            cfg = GpuConfig::with_sms(n);
        }
        if let Some(v) = self.fetch_table {
            cfg.r2d2.fetch_table = v;
        }
        if let Some(v) = self.regid_calc {
            cfg.r2d2.regid_calc = v;
        }
        if let Some(v) = self.lr_add {
            cfg.r2d2.lr_add = v;
        }
        cfg
    }

    fn canonical(&self) -> String {
        fn f<T: std::fmt::Display>(v: Option<T>) -> String {
            v.map_or_else(|| "-".to_string(), |x| x.to_string())
        }
        format!(
            "sms={};ft={};rc={};la={}",
            f(self.num_sms),
            f(self.fetch_table),
            f(self.regid_calc),
            f(self.lr_add)
        )
    }

    fn to_json(self) -> Value {
        fn opt(v: Option<u64>) -> Value {
            v.map_or(Value::Null, json::int)
        }
        json::obj(vec![
            ("num_sms", opt(self.num_sms.map(u64::from))),
            ("fetch_table", opt(self.fetch_table)),
            ("regid_calc", opt(self.regid_calc)),
            ("lr_add", opt(self.lr_add)),
        ])
    }

    fn from_json(v: &Value) -> Option<ConfigOverrides> {
        fn opt(v: Option<&Value>) -> Option<u64> {
            v.and_then(Value::as_u64)
        }
        Some(ConfigOverrides {
            num_sms: opt(v.get("num_sms")).and_then(|n| u32::try_from(n).ok()),
            fetch_table: opt(v.get("fetch_table")),
            regid_calc: opt(v.get("regid_calc")),
            lr_add: opt(v.get("lr_add")),
        })
    }
}

/// One experiment: a workload under a machine model and configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workload id accepted by [`r2d2_workloads::resolve`]: a Table 2
    /// abbreviation (`"BP"`) or a scaled variant (`"BP@n12"`).
    pub workload: String,
    /// Input scale.
    pub size: Size,
    /// Machine model.
    pub model: ModelSpec,
    /// Configuration deviations from [`GpuConfig::default`].
    pub overrides: ConfigOverrides,
    /// Run with the stall-attribution profiler attached and emit trace
    /// artifacts. Profiled runs produce the same `Stats` core but populate
    /// `issued_sm_cycles`/`stall_sm_cycles`, so they cache separately.
    pub profile: bool,
    /// Worker threads for the sharded timing loop; `0` defers to the
    /// `R2D2_THREADS` environment variable (then to 1). Deliberately
    /// excluded from [`JobSpec::canonical`], the content hash, and the JSON
    /// form: results are bit-identical at every thread count, so the thread
    /// count is an execution knob, not part of the experiment's identity —
    /// cached results stay valid when it changes.
    pub threads: u32,
}

impl JobSpec {
    /// A plain (no overrides) job at the given size.
    pub fn new(workload: &str, size: Size, model: ModelSpec) -> JobSpec {
        JobSpec {
            workload: workload.to_string(),
            size,
            model,
            overrides: ConfigOverrides::default(),
            profile: false,
            threads: 0,
        }
    }

    /// Canonical text encoding — the content-hash preimage. Every field of
    /// the spec (and the schema version) appears here. `profile` is appended
    /// only when set, so all pre-existing cache keys are preserved.
    pub fn canonical(&self) -> String {
        let mut c = format!(
            "r2d2-job-v{};w={};size={};model={};cfg={}",
            SCHEMA_VERSION,
            self.workload,
            match self.size {
                Size::Small => "small",
                Size::Full => "full",
            },
            self.model.canonical(),
            self.overrides.canonical()
        );
        if self.profile {
            c.push_str(";profile=1");
        }
        c
    }

    /// Stable 64-bit FNV-1a content hash of [`JobSpec::canonical`].
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in self.canonical().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    }

    /// The hash as the 16-hex-digit cache file stem.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// Short human label for progress lines.
    pub fn label(&self) -> String {
        let mut l = format!("{}/{}", self.workload, self.model.name());
        if self.overrides != ConfigOverrides::default() {
            l.push_str(&format!(" [{}]", self.overrides.canonical()));
        }
        if self.profile {
            l.push_str(" [prof]");
        }
        l
    }

    /// Spec as JSON (embedded in cache files for verification).
    pub fn to_json(&self) -> Value {
        json::obj(vec![
            ("workload", json::s(&self.workload)),
            (
                "size",
                json::s(match self.size {
                    Size::Small => "small",
                    Size::Full => "full",
                }),
            ),
            ("model", self.model.to_json()),
            ("overrides", self.overrides.to_json()),
            ("profile", Value::Bool(self.profile)),
        ])
    }

    /// Decode a spec from a submission-request JSON object — the lenient
    /// wire form used by `r2d2-serve`'s `POST /jobs`. Only `workload` is
    /// required; `size` defaults to `"full"`, `model` to `"baseline"`,
    /// `overrides` to none, and `profile` to `false`. A `threads` key (an
    /// execution knob, never part of the cache identity) is honored when
    /// present. Returns a descriptive error for bad fields.
    pub fn from_json_request(v: &Value) -> Result<JobSpec, String> {
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("missing or non-string \"workload\"")?
            .to_string();
        let size = match v.get("size").map(|s| s.as_str()) {
            None => Size::Full,
            Some(Some("full")) => Size::Full,
            Some(Some("small")) => Size::Small,
            Some(other) => return Err(format!("bad \"size\" {other:?} (small|full)")),
        };
        let model = match v.get("model") {
            None => ModelSpec::Baseline,
            Some(m) => {
                ModelSpec::from_json(m).ok_or_else(|| format!("bad \"model\" {:?}", m.to_json()))?
            }
        };
        let overrides = match v.get("overrides") {
            None | Some(Value::Null) => ConfigOverrides::default(),
            Some(o) => ConfigOverrides::from_json(o).ok_or("bad \"overrides\" object")?,
        };
        let profile = match v.get("profile") {
            None | Some(Value::Null) => false,
            Some(p) => p.as_bool().ok_or("\"profile\" must be a boolean")?,
        };
        let threads = match v.get("threads") {
            None | Some(Value::Null) => 0,
            Some(t) => t
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("\"threads\" must be a small non-negative integer")?,
        };
        Ok(JobSpec {
            workload,
            size,
            model,
            overrides,
            profile,
            threads,
        })
    }

    /// Parse a spec back from its JSON form.
    pub fn from_json(v: &Value) -> Option<JobSpec> {
        Some(JobSpec {
            workload: v.get("workload")?.as_str()?.to_string(),
            size: match v.get("size")?.as_str()? {
                "small" => Size::Small,
                "full" => Size::Full,
                _ => return None,
            },
            model: ModelSpec::from_json(v.get("model")?)?,
            overrides: ConfigOverrides::from_json(v.get("overrides")?)?,
            // Absent in specs embedded before the profiler existed.
            profile: v.get("profile").and_then(Value::as_bool).unwrap_or(false),
            // Never serialized: an execution knob, not part of job identity.
            threads: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_spec_same_hash() {
        let a = JobSpec::new("BP", Size::Full, ModelSpec::R2d2);
        let b = JobSpec::new("BP", Size::Full, ModelSpec::R2d2);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(a.hash_hex().len(), 16);
    }

    #[test]
    fn any_knob_change_changes_hash() {
        let base = JobSpec::new("BP", Size::Full, ModelSpec::R2d2);
        let mut variants = vec![
            JobSpec::new("NN", Size::Full, ModelSpec::R2d2),
            JobSpec::new("BP", Size::Small, ModelSpec::R2d2),
            JobSpec::new("BP", Size::Full, ModelSpec::Baseline),
            JobSpec::new("BP", Size::Full, ModelSpec::Dac),
            JobSpec::new("BP", Size::Full, ModelSpec::Ideals),
            JobSpec::new(
                "BP",
                Size::Full,
                ModelSpec::R2d2With(GenOptions {
                    max_lr: 8,
                    ..GenOptions::default()
                }),
            ),
            JobSpec::new(
                "BP",
                Size::Full,
                ModelSpec::R2d2With(GenOptions {
                    share_groups: false,
                    ..GenOptions::default()
                }),
            ),
        ];
        for (field, ov) in [
            (
                "num_sms",
                ConfigOverrides {
                    num_sms: Some(120),
                    ..Default::default()
                },
            ),
            (
                "fetch_table",
                ConfigOverrides {
                    fetch_table: Some(2),
                    ..Default::default()
                },
            ),
            (
                "regid_calc",
                ConfigOverrides {
                    regid_calc: Some(3),
                    ..Default::default()
                },
            ),
            (
                "lr_add",
                ConfigOverrides {
                    lr_add: Some(8),
                    ..Default::default()
                },
            ),
        ] {
            let mut j = base.clone();
            j.overrides = ov;
            assert_ne!(
                j.content_hash(),
                base.content_hash(),
                "{field} must enter the hash"
            );
            variants.push(j);
        }
        let mut hashes: Vec<u64> = variants.iter().map(JobSpec::content_hash).collect();
        hashes.push(base.content_hash());
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), n, "all variant hashes must be distinct");
    }

    #[test]
    fn spec_json_roundtrip() {
        let specs = [
            JobSpec::new("BP@n12", Size::Full, ModelSpec::Ideals),
            JobSpec {
                workload: "KM".into(),
                size: Size::Small,
                model: ModelSpec::R2d2With(GenOptions {
                    max_lr: 4,
                    share_groups: false,
                    map_scalars: true,
                }),
                overrides: ConfigOverrides {
                    num_sms: Some(160),
                    fetch_table: Some(1),
                    regid_calc: None,
                    lr_add: Some(4),
                },
                profile: true,
                threads: 0,
            },
        ];
        for spec in specs {
            let text = spec.to_json().to_json();
            let back = JobSpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(spec, back);
        }
    }

    #[test]
    fn profile_flag_enters_hash_only_when_set() {
        let base = JobSpec::new("BP", Size::Full, ModelSpec::R2d2);
        let prof = JobSpec {
            profile: true,
            ..base.clone()
        };
        assert_ne!(base.content_hash(), prof.content_hash());
        // Unset profile leaves the canonical form (and so every cache key
        // minted before the flag existed) unchanged.
        assert!(!base.canonical().contains("profile"));
        let text = prof.to_json().to_json();
        let back = JobSpec::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(prof, back);
    }

    #[test]
    fn request_decode_defaults_and_errors() {
        let v = crate::json::parse("{\"workload\":\"NN\"}").unwrap();
        let spec = JobSpec::from_json_request(&v).unwrap();
        assert_eq!(spec, JobSpec::new("NN", Size::Full, ModelSpec::Baseline));

        let v = crate::json::parse(
            "{\"workload\":\"BP\",\"size\":\"small\",\"model\":\"r2d2\",\
             \"overrides\":{\"num_sms\":16},\"threads\":4,\"profile\":true}",
        )
        .unwrap();
        let spec = JobSpec::from_json_request(&v).unwrap();
        assert_eq!(spec.workload, "BP");
        assert_eq!(spec.size, Size::Small);
        assert_eq!(spec.model, ModelSpec::R2d2);
        assert_eq!(spec.overrides.num_sms, Some(16));
        assert_eq!(spec.threads, 4);
        assert!(spec.profile);
        // threads never enters the identity.
        let mut bare = spec.clone();
        bare.threads = 0;
        assert_eq!(spec.content_hash(), bare.content_hash());

        for (body, needle) in [
            ("{}", "workload"),
            ("{\"workload\":\"NN\",\"size\":\"tiny\"}", "size"),
            ("{\"workload\":\"NN\",\"model\":\"gpt\"}", "model"),
            ("{\"workload\":\"NN\",\"threads\":-1}", "threads"),
        ] {
            let v = crate::json::parse(body).unwrap();
            let err = JobSpec::from_json_request(&v).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn model_from_str_accepts_canonical_and_aliases() {
        use std::str::FromStr;
        for (s, m) in [
            ("baseline", ModelSpec::Baseline),
            ("dac", ModelSpec::Dac),
            ("darsie", ModelSpec::Darsie),
            ("darsie_scalar", ModelSpec::DarsieScalar),
            ("darsie-scalar", ModelSpec::DarsieScalar),
            ("r2d2", ModelSpec::R2d2),
            ("ideals", ModelSpec::Ideals),
        ] {
            assert_eq!(ModelSpec::from_str(s).unwrap(), m);
        }
        assert!(ModelSpec::from_str("warp-drive").is_err());
    }

    #[test]
    fn overrides_apply_to_config() {
        let ov = ConfigOverrides {
            num_sms: Some(100),
            fetch_table: Some(9),
            regid_calc: None,
            lr_add: Some(2),
        };
        let cfg = ov.apply();
        assert_eq!(cfg.num_sms, 100);
        assert_eq!(cfg.r2d2.fetch_table, 9);
        assert_eq!(cfg.r2d2.regid_calc, GpuConfig::default().r2d2.regid_calc);
        assert_eq!(cfg.r2d2.lr_add, 2);
    }
}
