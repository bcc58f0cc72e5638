// A frame boxed on its way through.
fn hold(frame: [u8; 64]) -> Box<[u8; 64]> {
    Box::new(frame)
}
