//! Deterministic scoped-thread fan-out for the engine's per-file work.
//!
//! Chunk the input across `workers` scoped threads, write each result
//! into its pre-assigned slot, and join. Because every item's result
//! lands at the item's own position, the output is **identical for any
//! worker count** — the deterministic-merge rule of DESIGN.md §9.

/// Map `f` over `items`, fanning out over up to `workers` scoped
/// threads, returning results in input order. `workers <= 1` (or a
/// single item) runs inline, and fan-out only engages once every worker
/// has at least `min_items_per_worker` items (clamped to ≥ 1). The
/// fan-out is additionally capped at the host's available parallelism —
/// extra threads on a saturated host are pure context-switch overhead,
/// and the slot-per-item merge makes the cap invisible in the output.
pub(crate) fn par_map_min<I, T, F>(
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
            h.join().expect("lint worker panicked"); // wmtree-lint: allow(WM0105)
        }
    });
    out.into_iter()
        .map(|slot| slot.expect("worker filled every slot")) // wmtree-lint: allow(WM0105)
        .collect()
}

/// The host's available parallelism, read once per process: each read
/// consults the scheduler affinity and cgroup quota (tens of
/// microseconds).
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
    fn preserves_input_order_for_any_worker_count_and_floor() {
        let items: Vec<u32> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x as u64 * 3 + 1).collect();
        for floor in [0usize, 1, 8, 256] {
            for workers in [0usize, 1, 2, 3, 8, 64, 1000] {
                let got = par_map_min(&items, workers, floor, |&x| x as u64 * 3 + 1);
                assert_eq!(got, expected, "workers={workers} floor={floor}");
            }
        }
        let empty: Vec<u8> = par_map_min(&[] as &[u8], 8, 1, |&x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn the_floor_decides_whether_the_map_fans_out() {
        // Below the floor the map runs on the calling thread — observable
        // through thread identity.
        let items: Vec<u32> = (0..16).collect();
        let caller = std::thread::current().id();
        let got = par_map_min(&items, 8, 16, |_| std::thread::current().id());
        assert!(got.iter().all(|id| *id == caller));
        // With a floor of 1 the same input engages both of two workers.
        if cores() >= 2 {
            let got = par_map_min(&items, 2, 1, |_| std::thread::current().id());
            let ids: std::collections::HashSet<_> = got.into_iter().collect();
            assert_eq!(ids.len(), 2, "floor=1 must engage both workers");
        }
    }
}
