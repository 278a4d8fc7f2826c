//! The traced layer harness.
//!
//! It composes the pipeline from the public stage functions, in the order
//! and with the arguments `sym_eig`/`sym_eig_selected` use under
//! `SymEigOptions::default()`, and times each stage from outside on a
//! `GemmContext` whose trace sink is enabled. The composition must
//! reproduce the public entry point bit for bit; a refactor that removes
//! or changes one of these functions breaks that check first.

use std::collections::{BTreeMap, BTreeSet};

use tcevd_band::{
    apply_q, bulge_chase_packed_with, bulge_chase_with, form_wy, sbr_wy, SymBand, WyOptions,
};
use tcevd_core::{
    tridiag_eig_dc_with, tridiag_eig_selected, EigRange, SbrVariant, SymEigOptions, SymEigResult,
    SymTridiag,
};
use tcevd_matrix::{mem, Mat, Op};
use tcevd_tensorcore::{Engine, GemmContext};
use tcevd_trace::TraceSink;

use crate::check::same_bits;
use crate::spans::Spans;
use crate::stats::Summary;

/// Which public entry point the composition stands in for.
#[derive(Copy, Clone, Debug)]
pub enum Path {
    /// `sym_eig` with `vectors: false`: packed chase, no back-transform.
    Values,
    /// `sym_eig` with `vectors: true`.
    Vectors,
    /// `sym_eig_selected` for eigenpairs `lo..hi`.
    Selected { lo: usize, hi: usize },
}

/// The GEMM labels the default pipeline dispatches; each gets a per-label
/// time and rate.
pub const GEMM_LABELS: [&str; 17] = [
    "wy_acc_w",
    "wy_acc_ytw",
    "wy_aw_append",
    "wy_final_u1",
    "wy_final_u2",
    "wy_final_u3",
    "wy_final_waw",
    "wy_final_yt2",
    "wy_inner_ga",
    "wy_inner_wx",
    "wy_inner_x",
    "formw_w",
    "formw_ytw",
    "backtransform_wv",
    "backtransform_ytv",
    "evd_q2z",
    "evd_sel_q2z",
];

/// One timed layer: its metric prefix, the sink counters it reports as
/// `<prefix>.<name>`, and whether it reports a GEMM rate.
pub struct Layer {
    pub name: &'static str,
    pub counters: &'static [(&'static str, &'static str)],
    pub gflops: bool,
}

const SBR: Layer = Layer {
    name: "band.sbr",
    counters: &[
        ("gemm_flops", "gemm_flops"),
        ("gemm_calls", "gemm_calls"),
        ("panel_flops", "kernel_flops.panel"),
    ],
    gflops: true,
};
const FORMW: Layer = Layer {
    name: "band.formw",
    counters: &[("gemm_flops", "gemm_flops")],
    gflops: true,
};
const BULGE: Layer = Layer {
    name: "band.bulge",
    counters: &[
        ("flops", "kernel_flops.bulge"),
        ("reflectors", "bulge_reflectors"),
    ],
    gflops: false,
};
const TRIDIAG: Layer = Layer {
    name: "core.tridiag",
    counters: &[
        ("dc_merges", "dc_merges"),
        ("ql_iterations", "ql_iterations"),
    ],
    gflops: false,
};
const BACKTRANSFORM: Layer = Layer {
    name: "core.backtransform",
    counters: &[("gemm_flops", "gemm_flops")],
    gflops: true,
};
pub const LAYERS: [&Layer; 5] = [&SBR, &FORMW, &BULGE, &TRIDIAG, &BACKTRANSFORM];

/// Medians over the traced reps.
pub struct LayerRun {
    /// Raw per-layer values: layer times, counts, peaks, per-label GEMM
    /// seconds and flops. [`LayerRun::finish`] turns flops into rates.
    pub medians: BTreeMap<String, f64>,
    /// Median over reps of the summed layer times.
    pub traced_total_s: f64,
    /// Every rep reproduced the public entry point's result bit for bit.
    pub matches: bool,
    /// GEMM labels dispatched that [`GEMM_LABELS`] does not list.
    pub unlisted: BTreeSet<String>,
}

impl LayerRun {
    /// Sum two runs over different inputs: times and counts add, peaks
    /// take the maximum.
    pub fn merge(mut self, other: LayerRun) -> LayerRun {
        for (k, v) in other.medians {
            let e = self.medians.entry(k.clone()).or_insert(0.0);
            *e = if k.ends_with(".mat_peak_bytes") {
                e.max(v)
            } else {
                *e + v
            };
        }
        self.traced_total_s += other.traced_total_s;
        self.matches &= other.matches;
        self.unlisted.extend(other.unlisted);
        self
    }

    /// The per-layer metrics: raw values plus GEMM rates, with the
    /// per-label flop counts folded into those rates.
    pub fn finish(mut self) -> BTreeMap<String, f64> {
        let rate = |flops: f64, s: f64| if s > 0.0 { flops / s * 1e-9 } else { 0.0 };
        for layer in LAYERS.iter().filter(|l| l.gflops) {
            let get = |k: &str| self.medians.get(&format!("{}.{k}", layer.name)).copied();
            let g = rate(get("gemm_flops").unwrap_or(0.0), get("s").unwrap_or(0.0));
            self.medians.insert(format!("{}.gflops", layer.name), g);
        }
        for label in GEMM_LABELS {
            let key = format!("tensorcore.gemm.{label}");
            let flops = self.medians.remove(&format!("{key}.flops")).unwrap_or(0.0);
            let s = self
                .medians
                .get(&format!("{key}.s"))
                .copied()
                .unwrap_or(0.0);
            self.medians.insert(format!("{key}.gflops"), rate(flops, s));
        }
        self.medians
    }
}

/// Time `reps` traced compositions of `path` on `a`, checking each against
/// `expect`, the public entry point's result for the same input.
#[allow(clippy::too_many_arguments)]
pub fn run(
    path: Path,
    a: &Mat<f32>,
    engine: Engine,
    reps: usize,
    expect: &SymEigResult,
    spans: &mut Spans,
    workload: &'static str,
    parent: Option<usize>,
) -> Result<LayerRun, String> {
    let mut per_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut totals = Vec::with_capacity(reps);
    let mut matches = true;
    let mut unlisted = BTreeSet::new();
    for _ in 0..reps {
        let rep = spans.begin("traced_rep", workload, parent);
        let sink = TraceSink::enabled();
        let mut rec = Recorder {
            sink: &sink,
            spans,
            workload,
            parent: Some(rep),
            values: BTreeMap::new(),
        };
        let result = compose(path, a, engine, &mut rec)?;
        let mut values = rec.values;
        spans.end(rep);
        matches &= same_bits(expect, &result);
        totals.push(
            LAYERS
                .iter()
                .filter_map(|l| values.get(&format!("{}.s", l.name)))
                .sum(),
        );
        for label in GEMM_LABELS {
            let key = format!("tensorcore.gemm.{label}");
            let ns = sink.counter(&format!("time.gemm_ns.{label}"));
            values.insert(format!("{key}.s"), ns as f64 * 1e-9);
            let flops = sink.counter(&format!("gemm_flops.{label}"));
            values.insert(format!("{key}.flops"), flops as f64);
        }
        let total_s = sink.counter("time.gemm_ns") as f64 * 1e-9;
        values.insert("tensorcore.gemm.total_s".into(), total_s);
        let flops = sink.counter("gemm_flops") as f64;
        values.insert("tensorcore.gemm.flops".into(), flops);
        let bytes = sink.counter("gemm_bytes") as f64;
        values.insert("tensorcore.gemm.bytes".into(), bytes);
        unlisted.extend(
            sink.counters()
                .keys()
                .filter_map(|k| k.strip_prefix("gemm_calls."))
                .filter(|l| !GEMM_LABELS.contains(l))
                .map(String::from),
        );
        for (k, v) in values {
            per_key.entry(k).or_default().push(v);
        }
    }
    let median = |v: &[f64]| Summary::whole(v).map_or(0.0, |s| s.median);
    Ok(LayerRun {
        medians: per_key
            .iter()
            .map(|(k, v)| (k.clone(), median(v)))
            .collect(),
        traced_total_s: median(&totals),
        matches,
        unlisted,
    })
}

/// Times layers into per-rep values and records a span around each.
struct Recorder<'a> {
    sink: &'a TraceSink,
    spans: &'a mut Spans,
    workload: &'static str,
    parent: Option<usize>,
    values: BTreeMap<String, f64>,
}

impl Recorder<'_> {
    /// Run `f` as one call into `layer`. A layer entered twice in one rep
    /// (the selected path's back-transform) accumulates.
    fn layer<T>(&mut self, layer: &Layer, f: impl FnOnce() -> T) -> T {
        let before: Vec<u64> = layer
            .counters
            .iter()
            .map(|(_, c)| self.sink.counter(c))
            .collect();
        let live = mem::current_bytes();
        mem::reset_peak();
        let id = self.spans.begin(layer.name, self.workload, self.parent);
        let out = f();
        let secs = self.spans.end(id);
        let peak = mem::peak_bytes().saturating_sub(live) as f64;
        *self.values.entry(format!("{}.s", layer.name)).or_default() += secs;
        for ((name, counter), b) in layer.counters.iter().zip(before) {
            let delta = self.sink.counter(counter).saturating_sub(b) as f64;
            *self
                .values
                .entry(format!("{}.{name}", layer.name))
                .or_default() += delta;
        }
        let e = self
            .values
            .entry(format!("{}.mat_peak_bytes", layer.name))
            .or_default();
        *e = e.max(peak);
        out
    }
}

/// The pipeline of `path` under the default options, one stage per layer.
fn compose(
    path: Path,
    a: &Mat<f32>,
    engine: Engine,
    rec: &mut Recorder<'_>,
) -> Result<SymEigResult, String> {
    rayon::configure(1);
    let ctx = GemmContext::new(engine).with_sink(rec.sink.clone());
    let sink = rec.sink.clone();
    let n = a.rows();
    let opts = SymEigOptions::default();
    let SbrVariant::Wy { block } = opts.sbr else {
        return Err(format!(
            "layer harness composes the WY default only, not {:?}",
            opts.sbr
        ));
    };
    let b = opts.bandwidth.min(n.saturating_sub(1)).max(1);
    let wy = WyOptions {
        bandwidth: b,
        block,
        panel: opts.panel,
        accumulate_q: false,
    };
    let sbr = rec
        .layer(&SBR, || sbr_wy(a, &wy, &ctx))
        .map_err(|e| format!("sbr_wy: {e}"))?;
    if let Path::Values = path {
        let chase = rec.layer(&BULGE, || {
            bulge_chase_packed_with(&SymBand::from_dense(&sbr.band, b), false, &sink)
        });
        let t = SymTridiag::new(chase.diag, chase.offdiag);
        let (values, _) = rec
            .layer(&TRIDIAG, || tridiag_eig_dc_with(&t, &sink))
            .map_err(|e| format!("tridiag_eig_dc_with: {e}"))?;
        return Ok(SymEigResult {
            values,
            vectors: None,
        });
    }
    let form = |rec: &mut Recorder<'_>| {
        (!sbr.levels.is_empty()).then(|| rec.layer(&FORMW, || form_wy(&sbr.levels, n, &ctx)))
    };
    // sym_eig forms W, Y right after the reduction; sym_eig_selected only
    // after the Q₂ product.
    let selected = matches!(path, Path::Selected { .. });
    let mut wy_factors = if selected { None } else { form(rec) };
    let chase = rec.layer(&BULGE, || bulge_chase_with(&sbr.band, b, true, &sink));
    let q2 = chase.q.ok_or("bulge_chase_with returned no Q")?;
    let t = SymTridiag::new(chase.diag, chase.offdiag);
    let (values, z) = match path {
        Path::Selected { lo, hi } => rec
            .layer(&TRIDIAG, || {
                tridiag_eig_selected(&t, EigRange::Index { lo, hi })
            })
            .map_err(|e| format!("tridiag_eig_selected: {e}"))?,
        _ => rec
            .layer(&TRIDIAG, || tridiag_eig_dc_with(&t, &sink))
            .map_err(|e| format!("tridiag_eig_dc_with: {e}"))?,
    };
    let mut x = rec.layer(&BACKTRANSFORM, || {
        let mut x = Mat::<f32>::zeros(n, z.cols());
        let (q2, z, out) = (q2.as_ref(), z.as_ref(), x.as_mut());
        if selected {
            ctx.gemm(
                "evd_sel_q2z",
                1.0,
                q2,
                Op::NoTrans,
                z,
                Op::NoTrans,
                0.0,
                out,
            );
        } else {
            ctx.gemm("evd_q2z", 1.0, q2, Op::NoTrans, z, Op::NoTrans, 0.0, out);
        }
        x
    });
    if selected {
        wy_factors = form(rec);
    }
    if let Some((w, y)) = &wy_factors {
        rec.layer(&BACKTRANSFORM, || {
            apply_q(w.as_ref(), y.as_ref(), &mut x, &ctx)
        });
    }
    Ok(SymEigResult {
        values,
        vectors: Some(x),
    })
}
