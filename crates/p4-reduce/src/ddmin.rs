//! The ddmin minimising delta-debugging algorithm (Zeller & Hildebrandt,
//! "Simplifying and Isolating Failure-Inducing Input", TSE 2002).
//!
//! `ddmin` shrinks a list of items while a caller-supplied test keeps
//! succeeding on the shrunk list.  It is the workhorse under the
//! declaration-, control-local- and statement-level reduction steps: the
//! "items" are declarations or statements, and the test builds a candidate
//! program and asks the bug oracle whether it still reproduces the target
//! finding.

/// Minimises `items` under `test`: returns a (locally) 1-minimal
/// subsequence for which `test` still returns true.
///
/// `test` is never called on the full input — the caller has already
/// established that it passes — and is monotonically budgeted by the caller
/// (a `test` that starts returning `false` forever simply freezes the
/// current result, so an exhausted oracle budget degrades gracefully).
pub fn ddmin<T: Clone>(items: &[T], test: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if current.len() < 2 {
        // A single item can still be droppable: try the empty list.
        if current.len() == 1 && test(&[]) {
            current.clear();
        }
        return current;
    }
    let mut granularity = 2usize;
    loop {
        if current.len() == 1 {
            // Chunked splitting cannot propose the empty list; try it
            // directly before settling on a single-item result.
            if test(&[]) {
                current.clear();
            }
            return current;
        }
        let chunks = split_points(current.len(), granularity);
        let mut progressed = false;

        // First try each chunk alone (big cuts), then each complement.
        for window in chunks.windows(2) {
            let subset: Vec<T> = current[window[0]..window[1]].to_vec();
            if subset.len() < current.len() && test(&subset) {
                current = subset;
                granularity = 2;
                progressed = true;
                break;
            }
        }
        if !progressed && granularity > 2 {
            for window in chunks.windows(2) {
                let mut complement: Vec<T> = Vec::with_capacity(current.len());
                complement.extend_from_slice(&current[..window[0]]);
                complement.extend_from_slice(&current[window[1]..]);
                if complement.len() < current.len() && test(&complement) {
                    current = complement;
                    granularity = granularity.saturating_sub(1).max(2);
                    progressed = true;
                    break;
                }
            }
        }
        if progressed {
            if current.is_empty() {
                return current;
            }
            continue;
        }
        if granularity >= current.len() {
            return current;
        }
        granularity = (granularity * 2).min(current.len());
    }
}

/// The `n + 1` split points dividing `len` items into `n` near-equal chunks.
fn split_points(len: usize, chunks: usize) -> Vec<usize> {
    let chunks = chunks.min(len).max(1);
    (0..=chunks).map(|i| i * len / chunks).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_single_failure_inducing_item() {
        let items: Vec<u32> = (0..64).collect();
        let mut calls = 0;
        let result = ddmin(&items, &mut |subset| {
            calls += 1;
            subset.contains(&37)
        });
        assert_eq!(result, vec![37]);
        assert!(
            calls < 200,
            "ddmin should be far cheaper than brute force: {calls}"
        );
    }

    #[test]
    fn finds_scattered_pair() {
        let items: Vec<u32> = (0..32).collect();
        let result = ddmin(&items, &mut |subset| {
            subset.contains(&3) && subset.contains(&29)
        });
        assert_eq!(result, vec![3, 29]);
    }

    #[test]
    fn preserves_order() {
        let items = vec![5, 4, 3, 2, 1];
        let result = ddmin(&items, &mut |subset| {
            subset.contains(&4) && subset.contains(&2)
        });
        assert_eq!(result, vec![4, 2]);
    }

    #[test]
    fn empty_result_when_nothing_is_needed() {
        let items = vec![1, 2, 3];
        let result = ddmin(&items, &mut |_| true);
        assert!(result.is_empty());
    }

    #[test]
    fn keeps_everything_when_everything_is_needed() {
        let items = vec![1, 2, 3, 4];
        let result = ddmin(&items, &mut |subset| subset.len() == 4);
        assert_eq!(result, vec![1, 2, 3, 4]);
    }

    #[test]
    fn single_item_lists() {
        assert!(ddmin(&[7], &mut |s: &[u32]| s.contains(&7)) == vec![7]);
        assert!(ddmin(&[7], &mut |_s: &[u32]| true).is_empty());
    }
}
