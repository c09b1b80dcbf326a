//! Trace collection.
//!
//! The Fig. 9 experiment (rdCAS/wrCAS memory trace) and several ablations
//! need a structured record of simulator events. [`TraceSink`] collects
//! [`TraceRecord`]s in memory and renders them as CSV; the bench binaries
//! write them to `results/*.csv`.

use std::fmt::Write as _;

use crate::clock::Cycle;

/// One timestamped trace record: a kind tag, an address-like value and a
/// free-form field list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: Cycle,
    /// Event kind, e.g. `"rdCAS"` or `"wrCAS"`.
    pub kind: &'static str,
    /// Primary value, typically a physical address.
    pub value: u64,
    /// Secondary value (e.g. stream / core id).
    pub tag: u64,
}

/// An in-memory trace collector with an optional retention cap.
///
/// `TraceSink` can be disabled so instrumented simulators pay nothing when
/// no experiment needs the trace. With a capacity set (see
/// [`TraceSink::enabled_with_capacity`]), the sink behaves as a ring
/// buffer: only the most recent `cap` records are retained, older records
/// are evicted, and [`TraceSink::dropped_records`] counts the evictions —
/// so a long-running simulation cannot grow the trace without bound.
///
/// Internally the buffer is a `Vec` allowed to reach `2 × cap` before it
/// compacts (one `drain` every `cap` records), which keeps `record` O(1)
/// amortized while still letting [`TraceSink::records`] hand out a
/// contiguous slice. A record counts as dropped the moment it falls out
/// of the logical window, not when the compaction happens.
///
/// # Example
///
/// ```
/// use simkit::{Cycle, TraceSink};
/// let mut sink = TraceSink::enabled();
/// sink.record(Cycle(4), "rdCAS", 0x1000, 0);
/// sink.record(Cycle(9), "wrCAS", 0x2000, 1);
/// let csv = sink.to_csv();
/// assert!(csv.starts_with("cycle,kind,value,tag\n"));
/// assert_eq!(sink.records().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    records: Vec<TraceRecord>,
    enabled: bool,
    capacity: Option<usize>,
    dropped: u64,
}

impl TraceSink {
    /// Creates a disabled sink: `record` calls are dropped.
    pub fn disabled() -> TraceSink {
        TraceSink {
            records: Vec::new(),
            enabled: false,
            capacity: None,
            dropped: 0,
        }
    }

    /// Creates an enabled, unbounded sink.
    pub fn enabled() -> TraceSink {
        TraceSink {
            records: Vec::new(),
            enabled: true,
            capacity: None,
            dropped: 0,
        }
    }

    /// Creates an enabled sink retaining at most `cap` records (ring
    /// buffer semantics: oldest records are evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn enabled_with_capacity(cap: usize) -> TraceSink {
        assert!(cap > 0, "trace capacity must be non-zero");
        TraceSink {
            records: Vec::new(),
            enabled: true,
            capacity: Some(cap),
            dropped: 0,
        }
    }

    /// Whether records are currently being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The retention cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of records evicted by the retention cap since the last
    /// [`TraceSink::clear`].
    pub fn dropped_records(&self) -> u64 {
        self.dropped
    }

    /// Records an event if the sink is enabled, evicting the oldest
    /// record when the retention cap is exceeded.
    #[inline]
    pub fn record(&mut self, at: Cycle, kind: &'static str, value: u64, tag: u64) {
        if !self.enabled {
            return;
        }
        self.records.push(TraceRecord {
            at,
            kind,
            value,
            tag,
        });
        if let Some(cap) = self.capacity {
            if self.records.len() > cap {
                // The oldest record just left the logical window; physical
                // compaction is deferred until the buffer doubles.
                self.dropped += 1;
                if self.records.len() >= cap * 2 {
                    let evict = self.records.len() - cap;
                    self.records.drain(..evict);
                }
            }
        }
    }

    /// All retained records, in collection order. With a cap set this is
    /// the most recent `cap` records (or fewer, before the cap is hit).
    pub fn records(&self) -> &[TraceRecord] {
        match self.capacity {
            Some(cap) if self.records.len() > cap => &self.records[self.records.len() - cap..],
            _ => &self.records,
        }
    }

    /// Drops all collected records and resets the dropped-record count.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }

    /// Renders the retained trace as CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("cycle,kind,value,tag\n");
        for r in self.records() {
            // Writing to a String cannot fail.
            let _ = writeln!(out, "{},{},{},{}", r.at.raw(), r.kind, r.value, r.tag);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_drops_records() {
        let mut s = TraceSink::disabled();
        s.record(Cycle(1), "rdCAS", 0, 0);
        assert!(s.records().is_empty());
        assert!(!s.is_enabled());
    }

    #[test]
    fn enabled_sink_collects_in_order() {
        let mut s = TraceSink::enabled();
        s.record(Cycle(1), "a", 10, 0);
        s.record(Cycle(2), "b", 20, 1);
        assert_eq!(s.records().len(), 2);
        assert_eq!(s.records()[0].kind, "a");
        assert_eq!(s.records()[1].value, 20);
    }

    #[test]
    fn capped_sink_evicts_oldest_and_counts_drops() {
        let mut s = TraceSink::enabled_with_capacity(3);
        for i in 0..10u64 {
            s.record(Cycle(i), "e", i, 0);
        }
        // Only the newest 3 of 10 records survive; 7 were evicted.
        assert_eq!(s.records().len(), 3);
        let values: Vec<u64> = s.records().iter().map(|r| r.value).collect();
        assert_eq!(values, vec![7, 8, 9]);
        assert_eq!(s.dropped_records(), 7);
        assert_eq!(s.capacity(), Some(3));
        // CSV renders only the retained window.
        assert_eq!(s.to_csv().lines().count(), 4); // header + 3 rows

        // Clearing resets both the window and the drop count.
        s.clear();
        assert_eq!(s.dropped_records(), 0);
        assert!(s.records().is_empty());
    }

    #[test]
    fn capped_sink_physical_buffer_stays_bounded() {
        let mut s = TraceSink::enabled_with_capacity(4);
        for i in 0..1000u64 {
            s.record(Cycle(i), "e", i, 0);
            // Amortized compaction may defer eviction, but never past 2×cap.
            assert!(s.records.len() < 8, "physical buffer exceeded 2x cap");
        }
        assert_eq!(s.records().len(), 4);
        assert_eq!(s.dropped_records(), 996);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = TraceSink::enabled_with_capacity(0);
    }

    #[test]
    fn csv_rendering() {
        let mut s = TraceSink::enabled();
        s.record(Cycle(5), "rdCAS", 4096, 2);
        let csv = s.to_csv();
        assert_eq!(csv, "cycle,kind,value,tag\n5,rdCAS,4096,2\n");
        s.clear();
        assert_eq!(s.to_csv(), "cycle,kind,value,tag\n");
    }
}
