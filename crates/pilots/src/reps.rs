//! Interleaved best-of-reps timing, shared by the `bench` binary and the
//! wall-clock halves of the experiments. Clock-free: the caller's `run`
//! closure times one repetition and returns its seconds.

/// Repetitions every wall-clock measurement takes its minimum over.
pub const REPS: usize = 3;

/// Runs `arms` timed arms [`REPS`] times, interleaved — repetition 0 of
/// every arm, then repetition 1, and so on — so machine drift biases every
/// arm alike, and returns each arm's minimum. `run(rep, arm)` performs one
/// timed run and returns its seconds.
///
/// ```
/// let mut calls = Vec::new();
/// let best = swamp_pilots::reps::best_of_interleaved(2, |rep, arm| {
///     calls.push((rep, arm));
///     (3 - rep + arm) as f64
/// });
/// assert_eq!(best, vec![1.0, 2.0]);
/// assert_eq!(&calls[..3], &[(0, 0), (0, 1), (1, 0)]);
/// ```
pub fn best_of_interleaved(arms: usize, mut run: impl FnMut(usize, usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; arms];
    for rep in 0..REPS {
        for (arm, min) in best.iter_mut().enumerate() {
            *min = min.min(run(rep, arm));
        }
    }
    best
}
