//! Bad: hot-path entry points whose call chains reach a panic in
//! another crate (see `panic_reach_ulp.rs`). `on_line` has array types
//! in its signature, which must not hide it from the call graph.

impl SmartDimmDevice {
    fn on_step(&mut self) {
        decode_stage(self.cur);
    }

    fn on_line(&mut self, d: &[u8; 64]) -> [u8; 64] {
        self.sum += fold_line(d);
        *d
    }
}
