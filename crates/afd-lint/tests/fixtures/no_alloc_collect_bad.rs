// A batch gathered into a fresh `Vec`, with and without a turbofish.
fn gather(frames: &[u64]) -> Vec<u64> {
    let odd: Vec<u64> = frames.iter().copied().filter(|f| f % 2 == 1).collect();
    let even = frames.iter().copied().filter(|f| f % 2 == 0).collect::<Vec<_>>();
    odd.into_iter().chain(even).collect()
}
