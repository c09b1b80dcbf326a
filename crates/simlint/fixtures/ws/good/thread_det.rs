//! Good: cross-thread state goes through the simkit::par doorway, and
//! raw threads are fine inside #[cfg(test)] code.

use simkit::par::Shared;

fn spin(&self) {
    let m = Shared::new(0u64);
    m.with(|v| *v += 1);
}

#[cfg(test)]
mod tests {
    #[test]
    fn threads_are_fine_in_tests() {
        let t = std::thread::spawn(|| 1);
        assert_eq!(t.join().unwrap(), 1);
    }
}
