//! Bad: panic sites transitively reachable from the device hot path.

pub fn decode_stage(x: Option<u32>) -> u32 {
    let v = x.unwrap();
    if v > MAX {
        panic!("decode overflow");
    }
    v
}

pub fn fold_line(d: &[u8]) -> u8 {
    d.first().copied().expect("non-empty line")
}
