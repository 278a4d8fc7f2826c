//! Results cache: repeat submissions are served without compute.
//!
//! The key is a 128-bit FNV-1a hash (two independent 64-bit streams) over
//! the matrix's exact bit pattern plus every option that can change the
//! result — engine, bandwidth, SBR variant/block, panel kind, solver,
//! vectors flag, and the recovery policy. `threads` and `trace` are
//! deliberately excluded: the pipeline's determinism contract guarantees
//! they never change the bits, so a cache hit is exact across pool sizes.

use std::collections::HashMap;
use std::collections::VecDeque;

use tcevd_core::{SbrVariant, SymEigOptions, SymEigResult, TridiagSolver};
use tcevd_matrix::Mat;
use tcevd_tensorcore::Engine;

/// One FNV-1a stream.
struct Fnv {
    h: u64,
}

impl Fnv {
    fn new(offset: u64) -> Self {
        Fnv { h: offset }
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.h ^= u64::from(byte);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

pub(crate) type Key = (u64, u64);

fn hash_options(fnv: &mut Fnv, opts: &SymEigOptions, engine: Engine) {
    fnv.write_u32(match engine {
        Engine::Sgemm => 0,
        Engine::Tc => 1,
        Engine::Tf32 => 2,
        Engine::EcTc => 3,
    });
    fnv.write_u64(opts.bandwidth as u64);
    match opts.sbr {
        SbrVariant::Wy { block } => {
            fnv.write_u32(0);
            fnv.write_u64(block as u64);
        }
        SbrVariant::Dbr { block } => {
            fnv.write_u32(2);
            fnv.write_u64(block as u64);
        }
    }
    fnv.write_u32(match opts.panel {
        tcevd_band::PanelKind::Tsqr => 0,
        tcevd_band::PanelKind::Householder => 1,
    });
    fnv.write_u32(match opts.solver {
        TridiagSolver::DivideConquer => 0,
        TridiagSolver::Ql => 1,
    });
    fnv.write_u32(u32::from(opts.vectors));
    fnv.write_u32(u32::from(opts.recovery.solver_fallback));
    fnv.write_u32(opts.recovery.ql_budget_boost);
    match opts.recovery.verify_tol {
        Some(tol) => {
            fnv.write_u32(1);
            fnv.write_u32(tol.to_bits());
        }
        None => fnv.write_u32(0),
    }
}

/// The cache key for a (matrix, options, engine) triple.
pub(crate) fn cache_key(a: &Mat<f32>, opts: &SymEigOptions, engine: Engine) -> Key {
    // two independent streams — a 64-bit collision joining two different
    // workloads is plausible at scale; a simultaneous 128-bit one is not
    let mut lo = Fnv::new(0xcbf2_9ce4_8422_2325);
    let mut hi = Fnv::new(0x6c62_272e_07bb_0142);
    for fnv in [&mut lo, &mut hi] {
        fnv.write_u64(a.rows() as u64);
        fnv.write_u64(a.cols() as u64);
        hash_options(fnv, opts, engine);
    }
    for v in a.as_slice() {
        lo.write_u32(v.to_bits());
    }
    for v in a.as_slice() {
        hi.write_u32(v.to_bits().rotate_left(16));
    }
    (lo.h, hi.h)
}

/// A stored result (plain vectors, so the cache owns untracked copies).
struct CachedResult {
    values: Vec<f32>,
    vectors: Option<Mat<f32>>,
}

/// Bounded FIFO results cache.
pub(crate) struct ResultsCache {
    cap: usize,
    map: HashMap<Key, CachedResult>,
    order: VecDeque<Key>,
}

impl ResultsCache {
    pub(crate) fn new(cap: usize) -> Self {
        ResultsCache {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    /// Look up a key, returning a fresh copy of the stored result.
    pub(crate) fn get(&self, key: &Key) -> Option<SymEigResult> {
        self.map.get(key).map(|c| SymEigResult {
            values: c.values.clone(),
            vectors: c.vectors.clone(),
        })
    }

    /// Insert a completed result (no-op when the cache is disabled).
    pub(crate) fn put(&mut self, key: Key, r: &SymEigResult) {
        if self.cap == 0 || self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.cap {
            match self.order.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
        self.map.insert(
            key,
            CachedResult {
                values: r.values.clone(),
                vectors: r.vectors.clone(),
            },
        );
        self.order.push_back(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(n: usize) -> SymEigResult {
        SymEigResult {
            values: (0..n).map(|i| i as f32).collect(),
            vectors: Some(Mat::identity(n, n)),
        }
    }

    #[test]
    fn key_depends_on_bits_and_options() {
        let a = Mat::<f32>::identity(4, 4);
        let opts = SymEigOptions::default();
        let k1 = cache_key(&a, &opts, Engine::Sgemm);
        assert_eq!(k1, cache_key(&a, &opts, Engine::Sgemm));
        // engine, option, and data changes all move the key
        assert_ne!(k1, cache_key(&a, &opts, Engine::Tc));
        let other_opts = SymEigOptions {
            vectors: true,
            ..opts
        };
        assert_ne!(k1, cache_key(&a, &other_opts, Engine::Sgemm));
        let mut b = a.clone();
        b.set(0, 0, 1.0 + f32::EPSILON); // one-ulp change
        assert_ne!(k1, cache_key(&b, &opts, Engine::Sgemm));
        // threads/trace must NOT move the key (bit-identical by contract)
        let threaded = SymEigOptions {
            threads: 4,
            trace: true,
            ..opts
        };
        assert_eq!(k1, cache_key(&a, &threaded, Engine::Sgemm));
    }

    #[test]
    fn sbr_variants_key_distinctly() {
        // Wy{nb} and Dbr{nb} must never collide — Dbr at the same block
        // size computes different bits than Wy, so sharing a key would
        // serve the wrong variant's cached result. (Dbr at nb = b is the
        // ZY baseline; it has no key of its own.)
        let a = Mat::<f32>::identity(4, 4);
        let with = |sbr| SymEigOptions {
            sbr,
            ..SymEigOptions::default()
        };
        let wy = cache_key(&a, &with(SbrVariant::Wy { block: 32 }), Engine::Sgemm);
        let dbr = cache_key(&a, &with(SbrVariant::Dbr { block: 32 }), Engine::Sgemm);
        let dbr2 = cache_key(&a, &with(SbrVariant::Dbr { block: 64 }), Engine::Sgemm);
        assert_ne!(wy, dbr);
        assert_ne!(dbr, dbr2);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let a = Mat::<f32>::identity(2, 2);
        let opts = SymEigOptions::default();
        let keys: Vec<_> = (0..3)
            .map(|i| {
                let mut m = a.clone();
                m.set(0, 0, i as f32 + 2.0);
                cache_key(&m, &opts, Engine::Sgemm)
            })
            .collect();
        let mut cache = ResultsCache::new(2);
        for k in &keys {
            cache.put(*k, &result(2));
        }
        assert!(cache.get(&keys[0]).is_none(), "oldest evicted");
        assert!(cache.get(&keys[1]).is_some());
        assert!(cache.get(&keys[2]).is_some());
        // disabled cache stores nothing
        let mut off = ResultsCache::new(0);
        off.put(keys[0], &result(2));
        assert!(off.get(&keys[0]).is_none());
    }
}
