//! The bulge chase with `Q₂` on a pool of four threads: the same bits as on
//! one, and not one fork. Its compact-WY groups run their GEMMs on the
//! calling thread; a fork per group cost more than it saved.
//!
//! This is a test binary of its own because the pool counters are
//! process-wide: no other test may fork while this one counts.

use tcevd_band::{bulge_chase_packed_with, SymBand};
use tcevd_trace::TraceSink;

#[test]
fn chase_with_q_forks_nothing_and_keeps_its_bits() {
    let (n, b) = (512, 32);
    let mut s = 17u64;
    let mut next = || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
    };
    let mut band = SymBand::<f32>::zeros(n, b);
    for j in 0..n {
        for i in j..(j + b + 1).min(n) {
            band.set(i, j, next());
        }
    }
    let bits = |x: &[f32]| -> Vec<u32> { x.iter().map(|v| v.to_bits()).collect() };
    let run = |threads: usize| {
        rayon::configure(threads);
        let before = rayon::stats();
        let r = bulge_chase_packed_with(&band, true, &TraceSink::disabled());
        let forks = rayon::stats().since(&before);
        rayon::configure(0);
        let q = r.q.expect("Q₂ requested");
        (bits(&r.diag), bits(&r.offdiag), bits(q.as_slice()), forks)
    };
    let (d1, e1, q1, _) = run(1);
    let (d4, e4, q4, forks) = run(4);
    assert!(d1 == d4 && e1 == e4, "tridiagonal bits differ");
    assert!(q1 == q4, "Q₂ bits differ");
    assert_eq!(
        (forks.join_parallel, forks.spawns),
        (0, 0),
        "the 4-thread chase forked"
    );
}
