//! Coarse-grained window execution.
//!
//! A simulation run splits into a chain of windows `W0..Wn`; window
//! `i+1` depends on the exact simulator state window `i` leaves
//! behind, so the chain runs in order. [`window_chain`] threads the
//! state through the windows and collects each window's result.
//!
//! The window inputs themselves must not depend on who executes them:
//! callers that need per-window randomness should derive it with
//! [`crate::seed::iteration_seed`]`(run_seed, window_index)` so the
//! stream is a pure function of the window's position in the chain.

/// Runs the window chain serially. `exec` consumes the entry state of
/// window `i` and returns its exit state plus the window's result.
pub fn window_chain<S, R>(
    initial: S,
    windows: usize,
    mut exec: impl FnMut(S, usize) -> (S, R),
) -> (S, Vec<R>) {
    let mut state = initial;
    let mut results = Vec::with_capacity(windows);
    for i in 0..windows {
        let (next, r) = exec(state, i);
        state = next;
        results.push(r);
    }
    (state, results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic window semantics: the state is a u64, window `i`
    /// mixes its index in with a splitmix-style bijection, and the
    /// result exposes the entry state so ordering bugs are visible.
    fn mix(state: u64, i: usize) -> u64 {
        let mut z = state
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn exec(state: u64, i: usize) -> (u64, u64) {
        (mix(state, i), state)
    }

    #[test]
    fn serial_chain_matches_hand_unroll() {
        let (end, results) = window_chain(7u64, 4, exec);
        let mut s = 7u64;
        let mut want = Vec::new();
        for i in 0..4 {
            want.push(s);
            s = mix(s, i);
        }
        assert_eq!(results, want);
        assert_eq!(end, s);
    }
}
