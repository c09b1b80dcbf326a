//! Known-bad: unchecked indexing and panics on the device hot path.

pub fn hot(v: &[u8], i: usize) -> u8 {
    let x = v[i];
    v.first().copied().unwrap() + x
}

pub fn decode(flag: bool) {
    if flag {
        panic!("malformed descriptor");
    }
}
