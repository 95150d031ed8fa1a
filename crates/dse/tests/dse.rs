//! End-to-end sweeps on the real simulator, plus seeded-loop property
//! tests of the Pareto helpers.

use ppa_dse::gridwork::{DseKind, GridEval, LocalEval};
use ppa_dse::{dominates, explore, frontier_indices, ExploreParams, Objectives, Space};
use ppa_grid::GridMode;
use ppa_prng::Prng;
use std::sync::Arc;

fn tiny_params(seed: u64) -> ExploreParams {
    ExploreParams::new(seed, 1_200, vec!["sjeng".into(), "gobmk".into()])
}

#[test]
fn real_sweep_is_reproducible() {
    let space = Space::select(&["csq", "region"]).unwrap();
    let p = tiny_params(1);
    let a = explore(&space, &p, &LocalEval).unwrap();
    let b = explore(&space, &p, &LocalEval).unwrap();
    assert_eq!(a, b, "two identical sweeps diverged");
    assert!(!a.frontier.is_empty());
    assert!(a.cells > 0);
}

#[test]
fn real_sweep_prunes_the_raw_grid() {
    let space = Space::select(&["csq", "region"]).unwrap();
    let r = explore(&space, &tiny_params(1), &LocalEval).unwrap();
    assert!(
        r.pruned_pct(space.raw_size()) >= 50.0,
        "expected >= 50% pruned, got {:.1}% ({} of {} evaluated)",
        r.pruned_pct(space.raw_size()),
        r.evaluated.len(),
        space.raw_size()
    );
}

#[test]
fn grid_sweep_matches_local() {
    let space = Space::select(&["csq", "mode"]).unwrap();
    let p = tiny_params(2);
    let local = explore(&space, &p, &LocalEval).unwrap();
    let handle = ppa_serve::attach(GridMode::Loopback(2), Arc::new(DseKind))
        .expect("loopback grid starts")
        .expect("loopback is not Off");
    let grid = explore(&space, &p, &GridEval(handle.runner())).unwrap();
    handle.finish();
    assert_eq!(local, grid, "grid and local sweeps diverged");
}

/// Seeded random objective sets for the property loops.
fn random_points(rng: &mut Prng, n: usize) -> Vec<Objectives> {
    (0..n)
        .map(|_| Objectives {
            overhead: 1.0 + (rng.random_below(1000) as f64) / 500.0,
            ckpt_bytes: rng.random_below(4) * 1024,
            energy_uj: (rng.random_below(1000) as f64) / 10.0,
        })
        .collect()
}

#[test]
fn frontier_never_contains_a_dominated_point() {
    let mut rng = Prng::seed_from_u64(7);
    for _ in 0..200 {
        let n = 1 + rng.random_below(30) as usize;
        let pts = random_points(&mut rng, n);
        let front = frontier_indices(&pts);
        assert!(!front.is_empty(), "a non-empty set has a frontier");
        for &i in &front {
            for &j in &front {
                assert!(!dominates(&pts[i], &pts[j]));
            }
        }
        // Every excluded point is dominated by someone.
        for k in 0..pts.len() {
            if !front.contains(&k) {
                assert!(
                    (0..pts.len()).any(|j| j != k && dominates(&pts[j], &pts[k])),
                    "point {k} was dropped but nothing dominates it"
                );
            }
        }
    }
}

#[test]
fn frontier_is_invariant_under_completion_order() {
    let mut rng = Prng::seed_from_u64(11);
    for _ in 0..100 {
        let n = 2 + rng.random_below(20) as usize;
        let pts = random_points(&mut rng, n);
        let baseline: Vec<Objectives> = frontier_indices(&pts).iter().map(|&i| pts[i]).collect();
        let mut shuffled: Vec<Objectives> = pts.clone();
        rng.shuffle(&mut shuffled);
        let mut a: Vec<&Objectives> = baseline.iter().collect();
        let mut b: Vec<Objectives> = frontier_indices(&shuffled)
            .iter()
            .map(|&i| shuffled[i])
            .collect();
        // Compare as multisets via a deterministic total order.
        let key = |o: &Objectives| (o.overhead.to_bits(), o.ckpt_bytes, o.energy_uj.to_bits());
        a.sort_by_key(|o| key(o));
        b.sort_by_key(|o| key(o));
        assert_eq!(a.len(), b.len(), "frontier size changed under reordering");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(key(x), key(y), "frontier content changed under reordering");
        }
    }
}
