//! [`RunRecord`]: the schema-versioned JSON summary of one bench run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::Command;

use dcmesh_obs::json::Json;
use dcmesh_obs::metrics::{Histogram, MetricsSnapshot, MAX_EXP, MIN_EXP};
use dcmesh_obs::report::PhaseAgg;
use dcmesh_obs::trace::Event;

use dcmesh_core::InvariantSummary;

/// Bump when the RunRecord JSON layout changes incompatibly. `compare`
/// refuses to diff records with different schema versions.
pub const SCHEMA_VERSION: u64 = 1;

/// Git metadata captured at record time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GitMeta {
    /// Commit hash, or `"unknown"` outside a repo.
    pub commit: String,
    /// Branch name, or `"unknown"`.
    pub branch: String,
    /// Whether the working tree had uncommitted changes.
    pub dirty: bool,
}

impl GitMeta {
    /// A placeholder for environments without git (and for golden tests).
    pub fn unknown() -> Self {
        Self {
            commit: "unknown".into(),
            branch: "unknown".into(),
            dirty: false,
        }
    }

    /// Ask `git` about the current checkout; falls back to
    /// [`GitMeta::unknown`] when git is unavailable.
    pub fn detect() -> Self {
        let run = |args: &[&str]| -> Option<String> {
            let out = Command::new("git").args(args).output().ok()?;
            if !out.status.success() {
                return None;
            }
            Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        let commit = run(&["rev-parse", "HEAD"]);
        let branch = run(&["rev-parse", "--abbrev-ref", "HEAD"]);
        let dirty = run(&["status", "--porcelain"]).map(|s| !s.is_empty());
        match (commit, branch, dirty) {
            (Some(commit), branch, dirty) => Self {
                commit,
                branch: branch.unwrap_or_else(|| "unknown".into()),
                dirty: dirty.unwrap_or(false),
            },
            _ => Self::unknown(),
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("commit".into(), Json::Str(self.commit.clone())),
            ("branch".into(), Json::Str(self.branch.clone())),
            ("dirty".into(), Json::Bool(self.dirty)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let s = |key: &str| -> Result<String, String> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("git: missing string '{key}'"))
        };
        let dirty = matches!(json.get("dirty"), Some(Json::Bool(true)));
        Ok(Self {
            commit: s("commit")?,
            branch: s("branch")?,
            dirty,
        })
    }
}

/// Flat totals for one `(phase, track)` pair, from span aggregation.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRecord {
    /// Phase name, e.g. `"sim.lfd"`.
    pub name: String,
    /// `"host"` or `"device"`.
    pub track: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total seconds.
    pub total_s: f64,
    /// Total payload bytes.
    pub bytes: u64,
}

impl PhaseRecord {
    fn from_agg(agg: &PhaseAgg) -> Self {
        Self {
            name: agg.name.clone(),
            track: agg.track.to_string(),
            count: agg.count,
            total_s: agg.total_s,
            bytes: agg.bytes,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("track".into(), Json::Str(self.track.clone())),
            ("count".into(), Json::Num(self.count as f64)),
            ("total_s".into(), Json::Num(self.total_s)),
            ("bytes".into(), Json::Num(self.bytes as f64)),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("phase: missing number '{key}'"))
        };
        Ok(Self {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or("phase: missing 'name'")?
                .to_string(),
            track: json
                .get("track")
                .and_then(Json::as_str)
                .ok_or("phase: missing 'track'")?
                .to_string(),
            count: num("count")? as u64,
            total_s: num("total_s")?,
            bytes: num("bytes")? as u64,
        })
    }
}

/// A log₂ histogram flattened for the record: summary stats, the standard
/// percentiles, and the *sparse* bucket list so the compare side can
/// rebuild the full [`Histogram`] and re-derive any quantile.
#[derive(Clone, Debug, PartialEq)]
pub struct HistRecord {
    /// Metric name, e.g. `"sim.md_step_seconds"`.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: f64,
    /// Smallest recorded value (NaN when empty).
    pub min: f64,
    /// Largest recorded value (NaN when empty).
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Values below the tracked range.
    pub underflow: u64,
    /// Values above the tracked range (and non-finite ones).
    pub overflow: u64,
    /// Non-empty `(exponent, count)` buckets; bucket `e` covers
    /// `[2^e, 2^(e+1))`.
    pub buckets: Vec<(i32, u64)>,
}

impl HistRecord {
    /// Flatten a live histogram.
    pub fn from_histogram(name: &str, h: &Histogram) -> Self {
        let buckets = (MIN_EXP..=MAX_EXP)
            .filter_map(|e| {
                let n = h.bucket(e);
                (n > 0).then_some((e, n))
            })
            .collect();
        Self {
            name: name.to_string(),
            count: h.count,
            sum: h.sum,
            min: if h.min.is_finite() { h.min } else { f64::NAN },
            max: if h.max.is_finite() { h.max } else { f64::NAN },
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            underflow: h.underflow,
            overflow: h.overflow,
            buckets,
        }
    }

    /// Rebuild a [`Histogram`] carrying the same buckets and extrema, so
    /// quantiles can be re-derived on the compare side.
    pub fn to_histogram(&self) -> Histogram {
        let mut h = Histogram {
            underflow: self.underflow,
            overflow: self.overflow,
            count: self.count,
            sum: self.sum,
            min: if self.min.is_nan() {
                f64::INFINITY
            } else {
                self.min
            },
            max: if self.max.is_nan() {
                f64::NEG_INFINITY
            } else {
                self.max
            },
            ..Histogram::default()
        };
        for &(e, n) in &self.buckets {
            if (MIN_EXP..=MAX_EXP).contains(&e) {
                h.counts[(e - MIN_EXP) as usize] = n;
            }
        }
        h
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum)),
            ("min".into(), Json::Num(self.min)),
            ("max".into(), Json::Num(self.max)),
            ("p50".into(), Json::Num(self.p50)),
            ("p95".into(), Json::Num(self.p95)),
            ("p99".into(), Json::Num(self.p99)),
            ("underflow".into(), Json::Num(self.underflow as f64)),
            ("overflow".into(), Json::Num(self.overflow as f64)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(e, n)| Json::Arr(vec![Json::Num(e as f64), Json::Num(n as f64)]))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        // Non-finite stats serialize as `null`; read them back as NaN.
        let num = |key: &str| -> Result<f64, String> {
            match json.get(key) {
                Some(Json::Num(n)) => Ok(*n),
                Some(Json::Null) => Ok(f64::NAN),
                _ => Err(format!("histogram: missing number '{key}'")),
            }
        };
        let buckets = json
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("histogram: missing 'buckets'")?
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().ok_or("histogram: bucket is not a pair")?;
                match pair {
                    [Json::Num(e), Json::Num(n)] => Ok((*e as i32, *n as u64)),
                    _ => Err("histogram: bucket is not [exp, count]".to_string()),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or("histogram: missing 'name'")?
                .to_string(),
            count: num("count")? as u64,
            sum: num("sum")?,
            min: num("min")?,
            max: num("max")?,
            p50: num("p50")?,
            p95: num("p95")?,
            p99: num("p99")?,
            underflow: num("underflow")? as u64,
            overflow: num("overflow")? as u64,
            buckets,
        })
    }
}

/// The schema-versioned summary of one run, written under
/// `bench_results/` and consumed by the `compare` binary.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// RunRecord layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Which binary produced the record (e.g. `"fig5_kernels"`).
    pub bin: String,
    /// Free-form workload description (scale, mesh, orbitals).
    pub workload: String,
    /// FNV-1a fingerprint over the physics config, when a simulation was
    /// involved. Serialized as a hex *string*: the raw u64 exceeds the
    /// 2^53 range JSON numbers can represent exactly.
    pub config_fingerprint: Option<u64>,
    /// Pool worker threads the run used.
    pub threads: usize,
    /// The installed fault plan's spec string; empty for a clean run.
    pub fault_plan: String,
    /// Git checkout metadata.
    pub git: GitMeta,
    /// Per-phase wall-time aggregates from the span timeline.
    pub phases: Vec<PhaseRecord>,
    /// Counter snapshot.
    pub counters: BTreeMap<String, u64>,
    /// Gauge snapshot (last value).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshot with percentiles and sparse buckets.
    pub histograms: Vec<HistRecord>,
    /// Whole-run invariant summary, when a supervised simulation ran.
    pub invariants: Option<InvariantSummary>,
}

impl RunRecord {
    /// Build a record from explicit parts. Deterministic given its inputs
    /// — the golden snapshot test drives this directly.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        bin: &str,
        workload: &str,
        config_fingerprint: Option<u64>,
        threads: usize,
        fault_plan: String,
        git: GitMeta,
        events: &[Event],
        metrics: &MetricsSnapshot,
        invariants: Option<InvariantSummary>,
    ) -> Self {
        let phases = dcmesh_obs::report::aggregate(events)
            .iter()
            .map(PhaseRecord::from_agg)
            .collect();
        let histograms = metrics
            .histograms
            .iter()
            .map(|(name, h)| HistRecord::from_histogram(name, h))
            .collect();
        let gauges = metrics
            .gauges
            .iter()
            .map(|(name, g)| (name.clone(), g.last))
            .collect();
        Self {
            schema_version: SCHEMA_VERSION,
            bin: bin.to_string(),
            workload: workload.to_string(),
            config_fingerprint,
            threads,
            fault_plan,
            git,
            phases,
            counters: metrics.counters.clone(),
            gauges,
            histograms,
            invariants,
        }
    }

    /// Build a record from the live environment: pool thread count, the
    /// installed fault plan, and the current git checkout.
    pub fn collect(
        bin: &str,
        workload: &str,
        config_fingerprint: Option<u64>,
        events: &[Event],
        metrics: &MetricsSnapshot,
        invariants: Option<InvariantSummary>,
    ) -> Self {
        let fault_plan = dcmesh_ckpt::fault::current()
            .map(|p| p.spec())
            .unwrap_or_default();
        Self::from_parts(
            bin,
            workload,
            config_fingerprint,
            dcmesh_pool::configured_threads(),
            fault_plan,
            GitMeta::detect(),
            events,
            metrics,
            invariants,
        )
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("bin".into(), Json::Str(self.bin.clone())),
            ("workload".into(), Json::Str(self.workload.clone())),
            (
                "config_fingerprint".into(),
                match self.config_fingerprint {
                    Some(fp) => Json::Str(format!("{fp:016x}")),
                    None => Json::Null,
                },
            ),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("fault_plan".into(), Json::Str(self.fault_plan.clone())),
            ("git".into(), self.git.to_json()),
            (
                "phases".into(),
                Json::Arr(self.phases.iter().map(PhaseRecord::to_json).collect()),
            ),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Arr(self.histograms.iter().map(HistRecord::to_json).collect()),
            ),
        ];
        obj.push((
            "invariants".into(),
            match &self.invariants {
                Some(inv) => inv.to_json(),
                None => Json::Null,
            },
        ));
        Json::Obj(obj)
    }

    /// Parse a record back from [`RunRecord::to_json`] output.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("record: missing number '{key}'"))
        };
        let s = |key: &str| {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record: missing string '{key}'"))
        };
        let config_fingerprint = match json.get("config_fingerprint") {
            Some(Json::Str(hex)) => Some(
                u64::from_str_radix(hex, 16)
                    .map_err(|e| format!("record: bad fingerprint '{hex}': {e}"))?,
            ),
            _ => None,
        };
        let phases = json
            .get("phases")
            .and_then(Json::as_arr)
            .ok_or("record: missing 'phases'")?
            .iter()
            .map(PhaseRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let histograms = json
            .get("histograms")
            .and_then(Json::as_arr)
            .ok_or("record: missing 'histograms'")?
            .iter()
            .map(HistRecord::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let counters = match json.get("counters") {
            Some(Json::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| {
                    v.as_num()
                        .map(|n| (k.clone(), n as u64))
                        .ok_or_else(|| format!("record: counter '{k}' is not a number"))
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("record: missing 'counters'".into()),
        };
        let gauges = match json.get("gauges") {
            Some(Json::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| match v {
                    Json::Num(n) => Ok((k.clone(), *n)),
                    Json::Null => Ok((k.clone(), f64::NAN)),
                    _ => Err(format!("record: gauge '{k}' is not a number")),
                })
                .collect::<Result<BTreeMap<_, _>, _>>()?,
            _ => return Err("record: missing 'gauges'".into()),
        };
        let invariants = match json.get("invariants") {
            Some(Json::Null) | None => None,
            Some(inv) => Some(InvariantSummary::from_json(inv)?),
        };
        Ok(Self {
            schema_version: num("schema_version")? as u64,
            bin: s("bin")?,
            workload: s("workload")?,
            config_fingerprint,
            threads: num("threads")? as usize,
            fault_plan: s("fault_plan")?,
            git: GitMeta::from_json(json.get("git").ok_or("record: missing 'git'")?)?,
            phases,
            counters,
            gauges,
            histograms,
            invariants,
        })
    }

    /// Write the record as pretty-stable JSON (one object, trailing
    /// newline) to `path`, creating parent directories.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::File::create(path)?;
        writeln!(f, "{}", self.to_json())
    }

    /// Read a record written by [`RunRecord::write`].
    pub fn read(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        Self::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> MetricsSnapshot {
        let mut m = MetricsSnapshot::default();
        m.counters.insert("comm.messages".into(), 42);
        let mut h = Histogram::default();
        for _ in 0..8 {
            h.record(0.25);
        }
        h.record(2.0);
        m.histograms.insert("sim.md_step_seconds".into(), h);
        m.gauges.entry("tddft.scf_residual".into()).or_default();
        m.gauges.get_mut("tddft.scf_residual").unwrap().last = 1e-9;
        m
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let rec = RunRecord::from_parts(
            "fig5_kernels",
            "mesh=24^3 norb=48",
            Some(0xdead_beef_0123_4567),
            8,
            "nan@3".into(),
            GitMeta::unknown(),
            &[],
            &sample_metrics(),
            None,
        );
        let json = rec.to_json();
        let back = RunRecord::from_json(&json).expect("roundtrip");
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.bin, rec.bin);
        assert_eq!(back.config_fingerprint, rec.config_fingerprint);
        assert_eq!(back.threads, 8);
        assert_eq!(back.fault_plan, "nan@3");
        assert_eq!(back.counters, rec.counters);
        assert_eq!(back.histograms, rec.histograms);
        assert_eq!(back.git, rec.git);
    }

    #[test]
    fn fingerprint_survives_as_hex_beyond_2_pow_53() {
        // 0xffff_ffff_ffff_fffe is not representable as f64; the hex-string
        // encoding must carry it exactly.
        let rec = RunRecord::from_parts(
            "bin",
            "w",
            Some(u64::MAX - 1),
            1,
            String::new(),
            GitMeta::unknown(),
            &[],
            &MetricsSnapshot::default(),
            None,
        );
        let text = rec.to_json().to_string();
        let back = RunRecord::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.config_fingerprint, Some(u64::MAX - 1));
    }

    #[test]
    fn hist_record_rebuilds_an_equivalent_histogram() {
        let mut h = Histogram::default();
        for v in [0.5, 0.5, 1.5, 3.0, 1024.0] {
            h.record(v);
        }
        let rec = HistRecord::from_histogram("x", &h);
        let back = rec.to_histogram();
        assert_eq!(back.count, h.count);
        assert_eq!(back.counts, h.counts);
        assert_eq!(back.p50(), h.p50());
        assert_eq!(back.p99(), h.p99());
    }
}
