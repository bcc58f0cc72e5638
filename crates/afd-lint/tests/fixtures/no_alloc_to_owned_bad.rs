// A borrowed frame copied into an owned one.
fn own(frame: &[u8]) -> Vec<u8> {
    frame.to_owned()
}
