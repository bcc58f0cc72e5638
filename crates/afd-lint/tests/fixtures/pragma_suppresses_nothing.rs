// Fixture: a pragma whose rule finds nothing on its line or the next is stale.
pub fn degenerate(lo: f64, hi: f64) -> bool {
    // lint:allow(no-float-eq, no float literal on either side, so the rule never fires)
    lo == hi
}

pub fn both(a: f64, b: f64) -> bool {
    a == 0.0 // lint:allow(no-float-eq, exact zero sentinel)
        || b == 0.0 // lint:allow(no-float-eq, exact zero sentinel)
}
