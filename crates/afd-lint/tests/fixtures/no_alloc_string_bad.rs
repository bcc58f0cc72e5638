// A sender's name built per frame.
fn name(id: u32) -> String {
    let mut name = String::new();
    name.push_str(if id == 0 { "zero" } else { "peer" });
    name + &String::from("-x")
}
