// A metric key formatted per frame.
fn key(shard: usize) -> String {
    format!("shard.{shard}.frames")
}
