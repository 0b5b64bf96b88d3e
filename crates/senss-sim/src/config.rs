//! System configuration — the paper's Figure 5 architectural parameters.

/// Which coherence protocol governs writes to shared lines (§6.1 names
/// both families; the paper — like most SMPs — adopts write-invalidate
/// "for its better performance", which the `coherence_protocols` ablation
/// confirms under SENSS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoherenceProtocol {
    /// MESI write-invalidate: a write to a Shared line broadcasts an
    /// invalidation and takes the line Modified.
    #[default]
    WriteInvalidate,
    /// Write-update (Firefly-style): a write to a Shared line broadcasts
    /// the datum to all sharers (and memory); every copy stays valid and
    /// Shared. Each such write is a bus transaction.
    WriteUpdate,
}

/// Full architectural configuration of the simulated SMP.
///
/// The defaults mirror the paper's Figure 5 (a Sun E6000-class machine):
/// 1 GHz cores, 64 KB 2-way L1 with 32 B lines and 2-cycle hits, a 4-way L2
/// with 64 B lines and 10-cycle hits, a 100 MHz / 3.2 GB/s shared bus with
/// 32 B transfer units, 120-cycle uncontended cache-to-cache transfers and
/// 180-cycle memory accesses, an 80-cycle AES unit and a 160-cycle /
/// 3.2 GB/s hashing unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Number of processors on the bus (the paper evaluates 2 and 4).
    pub num_processors: usize,
    /// L1 cache capacity in bytes (split I/D modelled as one D-side cache;
    /// the traces are data references).
    pub l1_size: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 line size in bytes.
    pub l1_line: usize,
    /// L1 hit latency in CPU cycles.
    pub l1_hit_latency: u64,
    /// L2 cache capacity in bytes (1 MB and 4 MB in the paper).
    pub l2_size: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 line size in bytes.
    pub l2_line: usize,
    /// L2 hit latency in CPU cycles.
    pub l2_hit_latency: u64,
    /// Uncontended cache-to-cache transfer latency in CPU cycles.
    pub cache_to_cache_latency: u64,
    /// Cache-to-memory access latency in CPU cycles.
    pub cache_to_memory_latency: u64,
    /// Shared-bus cycle time in CPU cycles (100 MHz bus at 1 GHz core
    /// clock = 10).
    pub bus_cycle: u64,
    /// Bytes the bus moves per bus cycle (32 B ⇒ 3.2 GB/s at 100 MHz).
    pub bus_width: usize,
    /// AES unit latency in CPU cycles.
    pub aes_latency: u64,
    /// Hashing unit latency in CPU cycles (memory integrity checking).
    pub hash_latency: u64,
    /// Data coherence protocol for shared-line writes.
    pub coherence: CoherenceProtocol,
}

impl SystemConfig {
    /// The paper's E6000-class configuration with `num_processors`
    /// processors and an L2 of `l2_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `num_processors` is zero or `l2_size` is not a power of
    /// two at least 64 KB.
    pub fn e6000(num_processors: usize, l2_size: usize) -> SystemConfig {
        if let Err(why) = SystemConfig::check_e6000(num_processors, l2_size) {
            panic!("{why}");
        }
        SystemConfig {
            num_processors,
            l1_size: 64 << 10,
            l1_ways: 2,
            l1_line: 32,
            l1_hit_latency: 2,
            l2_size,
            l2_ways: 4,
            l2_line: 64,
            l2_hit_latency: 10,
            cache_to_cache_latency: 120,
            cache_to_memory_latency: 180,
            bus_cycle: 10,
            bus_width: 32,
            aes_latency: 80,
            hash_latency: 160,
            coherence: CoherenceProtocol::WriteInvalidate,
        }
    }

    /// Why [`SystemConfig::e6000`] would reject `num_processors` and
    /// `l2_size`, if it would.
    pub fn check_e6000(num_processors: usize, l2_size: usize) -> Result<(), &'static str> {
        if num_processors == 0 {
            return Err("need at least one processor");
        }
        if !(l2_size.is_power_of_two() && l2_size >= (64 << 10)) {
            return Err("L2 size must be a power of two >= 64KB");
        }
        Ok(())
    }

    /// Switches the shared-line write protocol (the `coherence_protocols`
    /// ablation).
    pub fn with_coherence(mut self, coherence: CoherenceProtocol) -> SystemConfig {
        self.coherence = coherence;
        self
    }

    /// Bus cycles needed to move one L2 line across the bus.
    pub fn line_bus_cycles(&self) -> u64 {
        (self.l2_line as u64).div_ceil(self.bus_width as u64)
    }

    /// Bus occupancy in CPU cycles for a data-carrying transaction.
    pub fn data_occupancy(&self) -> u64 {
        self.line_bus_cycles() * self.bus_cycle
    }

    /// Bus occupancy in CPU cycles for an address-only transaction
    /// (invalidation, upgrade, authentication, pad messages).
    pub fn address_occupancy(&self) -> u64 {
        self.bus_cycle
    }

    /// Renders the configuration as the paper's Figure 5 parameter table.
    pub fn figure5_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Architectural Parameter        Value\n");
        s.push_str("------------------------------------------------\n");
        s.push_str(&format!(
            "Processors                     {}\n",
            self.num_processors
        ));
        s.push_str(&format!(
            "Separated L1 I- and D-cache    {}KB, {}-way, {}B line\n",
            self.l1_size >> 10,
            self.l1_ways,
            self.l1_line
        ));
        s.push_str(&format!(
            "L1 hit latency                 {} cycle\n",
            self.l1_hit_latency
        ));
        s.push_str(&format!(
            "Integrated L2 Cache            {}MB, {}-way, {}B line\n",
            self.l2_size >> 20,
            self.l2_ways,
            self.l2_line
        ));
        s.push_str(&format!(
            "L2 hit latency                 {} cycle\n",
            self.l2_hit_latency
        ));
        s.push_str(&format!(
            "Hashing latency                {} cycles\n",
            self.hash_latency
        ));
        s.push_str(&format!(
            "Cache-to-cache latency         {} cycles (uncontended)\n",
            self.cache_to_cache_latency
        ));
        s.push_str(&format!(
            "Cache-to-memory latency        {} cycles\n",
            self.cache_to_memory_latency
        ));
        s.push_str(&format!(
            "Shared bus                     3.2 GB/s, 100MHz, {}B line\n",
            self.bus_width
        ));
        s.push_str(&format!(
            "AES latency                    {} cycle\n",
            self.aes_latency
        ));
        s.push_str("AES throughput                 3.2 GB/s\n");
        s
    }
}

impl Default for SystemConfig {
    /// The paper's most common configuration: 4 processors, 4 MB L2.
    fn default() -> SystemConfig {
        SystemConfig::e6000(4, 4 << 20)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let c = SystemConfig::e6000(4, 4 << 20);
        assert_eq!(c.l1_size, 64 << 10);
        assert_eq!(c.l1_ways, 2);
        assert_eq!(c.l1_line, 32);
        assert_eq!(c.l1_hit_latency, 2);
        assert_eq!(c.l2_ways, 4);
        assert_eq!(c.l2_line, 64);
        assert_eq!(c.l2_hit_latency, 10);
        assert_eq!(c.cache_to_cache_latency, 120);
        assert_eq!(c.cache_to_memory_latency, 180);
        assert_eq!(c.bus_cycle, 10);
        assert_eq!(c.aes_latency, 80);
        assert_eq!(c.hash_latency, 160);
    }

    #[test]
    fn occupancies() {
        let c = SystemConfig::default();
        // 64B line over a 32B-wide bus: 2 bus cycles = 20 CPU cycles.
        assert_eq!(c.line_bus_cycles(), 2);
        assert_eq!(c.data_occupancy(), 20);
        assert_eq!(c.address_occupancy(), 10);
    }

    #[test]
    fn figure5_renders() {
        let t = SystemConfig::default().figure5_table();
        assert!(t.contains("120 cycles"));
        assert!(t.contains("4MB"));
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_processors_rejected() {
        SystemConfig::e6000(0, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_l2_rejected() {
        SystemConfig::e6000(2, (1 << 20) + 5);
    }
}
