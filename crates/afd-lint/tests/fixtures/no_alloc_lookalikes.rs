// Names that look like the allocating forms and are not: a method
// definition, type positions, a field and a non-allocating macro.
struct Batch {
    format: u8,
    held: Option<Box<[u8]>>,
}

impl Batch {
    fn collect(&self, name: &String) -> usize {
        let _ = format_args!("{}", self.format);
        name.len() + self.held.as_ref().map_or(0, |h| h.len())
    }
}
