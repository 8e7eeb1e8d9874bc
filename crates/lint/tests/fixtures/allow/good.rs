pub fn arm(kernel: &mut Kernel, n: u64) {
    kernel.schedule(n, move || {});
    // lint:allow(panic-path) -- every caller passes a non-empty window
    if n == 0 { panic!("empty window") }
}
