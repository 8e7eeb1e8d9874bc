pub fn arm(kernel: &mut Kernel, n: u64) {
    kernel.schedule(n, move || {});
    // lint:allow(panic-path)
    if n == 0 { panic!("empty window") }
}

pub fn g() -> u32 {
    // lint:allow(not-a-real-rule) -- the rule name is misspelled
    2
}
