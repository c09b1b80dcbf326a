//! Good: no panic is reachable — out-of-range input filters to `None`.

pub fn decode_stage(x: Option<u32>) -> Option<u32> {
    x.filter(|v| *v <= MAX)
}

pub fn fold_line(d: &[u8]) -> Option<u8> {
    d.first().copied()
}
