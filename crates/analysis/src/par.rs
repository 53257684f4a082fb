//! Deterministic scoped-thread fan-out for per-page analysis passes.
//!
//! Chunk the input across `workers` scoped threads, write each result
//! into its pre-assigned slot, and join. Because every item's result lands at
//! the item's own position, the output is **identical for any worker
//! count** — the deterministic-merge rule of DESIGN.md §9. Ordered
//! floating-point accumulation therefore stays inside `f`, never
//! across threads.

/// Minimum items per worker before fan-out engages. Below this, thread
/// spawn/join and cross-core cache traffic cost more than the chunks
/// save: an uncapped 8-worker fan-out over a Small-scale run's ~700
/// pages measured slower than one worker, so small inputs cap the
/// effective worker count until each worker has at least this many
/// items to amortize the coordination. Results are unaffected — the
/// slot-per-item merge is identical for every worker count.
pub const MIN_ITEMS_PER_WORKER: usize = 256;

/// Per-worker item floor for the tree-build stage, which fans out at
/// **per-visit** granularity (pages × profiles items). A per-page
/// fan-out plateaued (8 workers no faster than 1 at Medium scale):
/// with one chunk per worker, a handful of heavyweight pages serializes
/// a whole chunk behind one worker, and the 256-page floor kept
/// Medium-scale runs at 2–3 effective workers. Per-visit items are
/// ~`n_profiles`× more numerous and far more uniform (one tree each),
/// so a lower floor amortizes spawn/join while chunks stay balanced.
pub const MIN_VISITS_PER_WORKER: usize = 64;

/// Map `f` over `items`, fanning out over up to `workers` scoped
/// threads, returning results in input order. `workers <= 1` (or a
/// single item) runs inline, and fan-out only engages once every
/// worker has at least [`MIN_ITEMS_PER_WORKER`] items. The fan-out is
/// additionally capped at the host's available parallelism — extra
/// threads on a saturated host are pure context-switch overhead, and
/// the slot-per-item merge makes the cap invisible in the output.
pub fn par_map<I, T, F>(items: &[I], workers: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map_min(items, workers, MIN_ITEMS_PER_WORKER, f)
}

/// [`par_map`] with an explicit per-worker item floor, for callers
/// whose per-item work dwarfs thread spawn/join cost (e.g. the lint
/// engine lexing whole files: ~150 items, each milliseconds of work —
/// the 256-item floor tuned for per-page analysis would never fan
/// out). `min_items_per_worker` is clamped to ≥ 1.
pub fn par_map_min<I, T, F>(
    items: &[I],
    workers: usize,
    min_items_per_worker: usize,
    f: F,
) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let workers = workers
        .clamp(1, items.len().max(1))
        .min((items.len() / min_items_per_worker.max(1)).max(1));
    // The core count is read only when a fan-out is still possible.
    let workers = if workers > 1 { workers.min(cores()) } else { 1 };
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<T>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (inp, outp) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            handles.push(scope.spawn(move || {
                for (item, slot) in inp.iter().zip(outp.iter_mut()) {
                    *slot = Some(f(item));
                }
            }));
        }
        for h in handles {
            h.join().expect("analysis worker panicked"); // wmtree-lint: allow(WM0105)
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot")) // wmtree-lint: allow(WM0105)
        .collect()
}

/// The host's available parallelism, read once per process: each read
/// consults the scheduler affinity and cgroup quota (tens of
/// microseconds), and the per-site stage would otherwise read it for
/// every site.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x as u64 * 3 + 1).collect();
        for workers in [0usize, 1, 2, 3, 8, 64, 1000] {
            let got = par_map(&items, workers, |&x| x as u64 * 3 + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_input() {
        let got: Vec<u8> = par_map(&[] as &[u8], 8, |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn small_inputs_do_not_fan_out() {
        // Below the threshold the map must run on the calling thread —
        // observable through thread identity.
        let items: Vec<u32> = (0..MIN_ITEMS_PER_WORKER as u32).collect();
        let caller = std::thread::current().id();
        let got = par_map(&items, 8, |&x| (x, std::thread::current().id()));
        assert!(got.iter().all(|(_, id)| *id == caller));
        // At 2× the threshold, 8 requested workers engage exactly
        // min(2, cores) — the item budget allows two, the core cap may
        // shrink that further on small hosts.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let items: Vec<u32> = (0..2 * MIN_ITEMS_PER_WORKER as u32).collect();
        let got = par_map(&items, 8, |_| std::thread::current().id());
        let ids: std::collections::HashSet<_> = got.into_iter().collect();
        assert_eq!(ids.len(), 2.min(cores), "worker count != min(2, cores)");
    }

    #[test]
    fn explicit_floor_fans_out_small_inputs() {
        // With a floor of 1, even a tiny input fans out (capped by
        // cores) — and the merged output is still in input order.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let items: Vec<u32> = (0..16).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x as u64 + 9).collect();
        for workers in [1usize, 2, 8] {
            assert_eq!(
                par_map_min(&items, workers, 1, |&x| x as u64 + 9),
                expected,
                "workers={workers}"
            );
        }
        if cores >= 2 {
            let got = par_map_min(&items, 2, 1, |_| std::thread::current().id());
            let ids: std::collections::HashSet<_> = got.into_iter().collect();
            assert_eq!(ids.len(), 2, "floor=1 must engage both workers");
        }
    }

    #[test]
    fn threshold_preserves_results() {
        let items: Vec<u32> = (0..3 * MIN_ITEMS_PER_WORKER as u32 + 17).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x as u64 * 7 + 5).collect();
        for workers in [1usize, 2, 8, 64] {
            assert_eq!(par_map(&items, workers, |&x| x as u64 * 7 + 5), expected);
        }
    }
}
