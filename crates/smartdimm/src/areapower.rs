//! Area and power accounting (§VII-D).
//!
//! The paper reports its FPGA prototype at 4.78 W of dynamic power when
//! the DDR channel is saturated, ~0.92 W average across benchmarks
//! (< 30 % channel utilization), and ~21.8 % of FPGA resources for the
//! TLS offload. This module reproduces that accounting: per-component
//! SRAM-bit and logic-unit estimates whose totals are calibrated to the
//! published full-rate power and TLS share.

use crate::configmem::RESULT_SLOTS;
use crate::device::SmartDimmConfig;
use crate::LINES_PER_PAGE;

/// A per-component resource estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Component name.
    pub name: &'static str,
    /// SRAM bits used.
    pub sram_bits: u64,
    /// Logic cost in abstract LUT-equivalents.
    pub logic_units: u64,
    /// Dynamic power at full DDR-channel utilization, watts.
    pub dynamic_watts: f64,
}

/// The full report.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaPowerReport {
    /// Per-component breakdown.
    pub components: Vec<Component>,
    /// FPGA LUT budget used for utilization percentages.
    pub fpga_luts: u64,
}

impl AreaPowerReport {
    /// Total SRAM bits.
    pub fn total_sram_bits(&self) -> u64 {
        self.components.iter().map(|c| c.sram_bits).sum()
    }

    /// Total logic units.
    pub fn total_logic(&self) -> u64 {
        self.components.iter().map(|c| c.logic_units).sum()
    }

    /// Dynamic power at full channel utilization (the paper: 4.78 W).
    pub fn full_dynamic_watts(&self) -> f64 {
        self.components.iter().map(|c| c.dynamic_watts).sum()
    }

    /// Fraction of the FPGA consumed by the TLS DSA + its tables.
    pub fn tls_fpga_fraction(&self) -> f64 {
        let tls_logic: u64 = self
            .components
            .iter()
            .filter(|c| {
                matches!(
                    c.name,
                    "tls-dsa" | "gf-multiplier" | "translation-table" | "config-memory"
                )
            })
            .map(|c| c.logic_units)
            .sum();
        tls_logic as f64 / self.fpga_luts as f64
    }

    /// Renders a plain-text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("component            sram_bits   logic_units  dyn_watts\n");
        for c in &self.components {
            out.push_str(&format!(
                "{:<20} {:>10} {:>12} {:>9.3}\n",
                c.name, c.sram_bits, c.logic_units, c.dynamic_watts
            ));
        }
        out.push_str(&format!(
            "TOTAL                {:>10} {:>12} {:>9.3}\n",
            self.total_sram_bits(),
            self.total_logic(),
            self.full_dynamic_watts()
        ));
        out
    }
}

/// Builds the report for a device configuration.
pub fn estimate(cfg: &SmartDimmConfig) -> AreaPowerReport {
    let scratch_bits = (cfg.scratchpad_pages * LINES_PER_PAGE * 64 * 8) as u64
        + (cfg.scratchpad_pages * LINES_PER_PAGE * 2) as u64; // data + state
    let xlat_bits = (cfg.xlat_entries as u64) * (52 + 40) // tag + mapping
        + (cfg.cam_entries as u64) * 92;
    let config_bits = (RESULT_SLOTS as u64) * 512 + 8 * 1024 * 1024; // results + 8MB ctx
    let deflate_bits = cfg.hw_deflate.candidate_memory_bits() as u64;

    // Logic-unit model calibrated so the TLS share lands at ~21.8% of a
    // KU060-class FPGA (~330K LUTs) and full-rate dynamic power at 4.78W.
    let fpga_luts = 330_000u64;
    let components = vec![
        Component {
            name: "ddr-phy",
            sram_bits: 32 * 1024,
            logic_units: 24_000,
            dynamic_watts: 1.10,
        },
        Component {
            name: "mig-phy",
            sram_bits: 32 * 1024,
            logic_units: 22_000,
            dynamic_watts: 1.05,
        },
        Component {
            name: "arbiter",
            sram_bits: 4 * 1024,
            logic_units: 9_000,
            dynamic_watts: 0.22,
        },
        Component {
            name: "bank-table",
            sram_bits: 16 * 64,
            logic_units: 1_200,
            dynamic_watts: 0.03,
        },
        Component {
            name: "translation-table",
            sram_bits: xlat_bits,
            logic_units: 14_000,
            dynamic_watts: 0.34,
        },
        Component {
            name: "scratchpad",
            sram_bits: scratch_bits,
            logic_units: 8_000,
            dynamic_watts: 0.55,
        },
        Component {
            name: "config-memory",
            sram_bits: config_bits,
            logic_units: 6_000,
            dynamic_watts: 0.31,
        },
        Component {
            name: "gf-multiplier",
            sram_bits: 8 * 1024,
            logic_units: 16_000,
            dynamic_watts: 0.28,
        },
        Component {
            name: "tls-dsa",
            sram_bits: 24 * 1024,
            logic_units: 36_000,
            dynamic_watts: 0.52,
        },
        Component {
            name: "deflate-dsa",
            sram_bits: deflate_bits,
            logic_units: 42_000,
            dynamic_watts: 0.38,
        },
    ];
    AreaPowerReport {
        components,
        fpga_luts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper_calibration() {
        let report = estimate(&SmartDimmConfig::default());
        let full = report.full_dynamic_watts();
        assert!((full - 4.78).abs() < 0.05, "full-rate power {full}");
        let tls = report.tls_fpga_fraction();
        assert!((0.18..0.26).contains(&tls), "tls fraction {tls}");
    }

    #[test]
    fn scratchpad_dominates_sram() {
        let report = estimate(&SmartDimmConfig::default());
        let scratch = report
            .components
            .iter()
            .find(|c| c.name == "scratchpad")
            .unwrap();
        // 8 MB scratchpad = 64 Mbit data + state.
        assert!(scratch.sram_bits > 64 * 1024 * 1024);
    }

    #[test]
    fn render_is_nonempty_and_tabular() {
        let report = estimate(&SmartDimmConfig::default());
        let text = report.render();
        assert!(text.contains("tls-dsa"));
        assert!(text.contains("TOTAL"));
        assert!(text.lines().count() >= 12);
    }

    #[test]
    fn wider_deflate_window_costs_more_sram() {
        let mut a = SmartDimmConfig::default();
        a.hw_deflate.window = 4;
        let mut b = SmartDimmConfig::default();
        b.hw_deflate.window = 16;
        assert!(estimate(&b).total_sram_bits() > estimate(&a).total_sram_bits());
    }
}
