//! Hierarchical execution: `teams distribute` + `parallel for simd`.
//!
//! Paper §III-C offloads the stencil with a two-level hierarchy: coarse
//! parallelism over (y-z plane x orbital-block) via `teams distribute
//! collapse(3)` and fine parallelism over orbitals via `parallel for simd`.
//! Here teams map to claim-loop tasks on the persistent `dcmesh-pool`
//! executor (each owning a disjoint chunk of the output — data-race freedom
//! by construction) and the inner level is the plain vectorizable loop each
//! kernel body writes, which is exactly what `simd` asks of the compiler.
//! Dispatch is zero-allocation: launching a team grid costs a couple of
//! atomic ops and a condvar broadcast, the host-side analogue of the paper's
//! cheap repeated kernel launches over a resident device (§III-C).

/// `#pragma omp target teams distribute`: run `body(team_index)` for every
/// index in `0..num_teams`, in parallel on the persistent pool. One team
/// per claim, so imbalanced teams are stolen by whichever worker frees up.
pub fn teams_distribute<F>(num_teams: usize, body: F)
where
    F: Fn(usize) + Sync + Send,
{
    dcmesh_pool::global().for_each_index_coarse(0..num_teams, body);
}

/// `teams distribute` over mutable chunks: splits `data` into `num_teams`
/// nearly equal contiguous chunks and hands each (team_index, chunk) to
/// `body`. Chunk boundaries are computed the same way OpenMP distributes
/// iterations: `ceil(len / num_teams)` per team.
pub fn teams_distribute_mut<T, F>(data: &mut [T], num_teams: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync + Send,
{
    if num_teams == 0 {
        return;
    }
    let chunk_len = data.len().div_ceil(num_teams);
    dcmesh_pool::global().for_each_chunks_of_mut(data, chunk_len, body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn teams_cover_all_indices_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        teams_distribute(n, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunk_mut_matches_openmp_boundaries() {
        let mut v = vec![0usize; 103];
        // ceil(103/10) = 11-element chunks, last chunk 4 long.
        teams_distribute_mut(&mut v, 10, |t, chunk| {
            for x in chunk.iter_mut() {
                *x = t + 1;
            }
        });
        for (j, &x) in v.iter().enumerate() {
            assert_eq!(x, j / 11 + 1);
        }
    }

    #[test]
    fn chunked_teams_handle_edge_cases() {
        let mut empty: Vec<u8> = vec![];
        teams_distribute_mut(&mut empty, 4, |_, _| panic!("no teams on empty data"));
        let mut tiny = vec![0u8; 2];
        teams_distribute_mut(&mut tiny, 8, |_, c| {
            for x in c.iter_mut() {
                *x = 1;
            }
        });
        assert_eq!(tiny, vec![1, 1]);
    }

    #[test]
    fn teams_parallelism_produces_same_result_as_serial() {
        let n = 64 * 64;
        let mut parallel_out = vec![0.0f64; n];
        teams_distribute_mut(&mut parallel_out, 32, |t, chunk| {
            let chunk_len = n.div_ceil(32);
            let base = t * chunk_len;
            for (i, x) in chunk.iter_mut().enumerate() {
                *x = ((base + i) as f64).sin();
            }
        });
        let serial_out: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        assert_eq!(parallel_out, serial_out);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Team-chunk dispatch writes every element exactly once with OpenMP
        // `ceil(len / n_teams)` boundaries.
        #[test]
        fn team_chunks_partition_exactly(len in 1usize..800, n_teams in 1usize..65) {
            let mut data = vec![0u32; len];
            teams_distribute_mut(&mut data, n_teams, |t, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1 + t as u32;
                }
            });
            let chunk_len = len.div_ceil(n_teams);
            for (j, &x) in data.iter().enumerate() {
                prop_assert_eq!(x, 1 + (j / chunk_len) as u32);
            }
        }
    }
}
