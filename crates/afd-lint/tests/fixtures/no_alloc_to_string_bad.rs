// A frame's sender rendered as text.
fn render(id: u32) -> String {
    id.to_string()
}
