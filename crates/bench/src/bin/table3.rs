//! Table III: how small can a VM's footprint get while staying
//! responsive?
//!
//! Paper rows: a booted VM holds 81 042 pages (316.57 MB); the balloon
//! driver bottoms out at 20 480 pages (64 MB); FluidMem under KVM keeps
//! SSH working at 180 pages (0.703 MB) and ICMP at 80 pages (0.3 MB);
//! with full virtualization the footprint reaches 1 page (0.004 MB),
//! non-responsive but revivable.

use fluidmem_bench::{banner, HarnessArgs, TextTable};
use fluidmem_block::{PmemDevice, SsdDevice};
use fluidmem_coord::PartitionId;
use fluidmem_core::{FluidMemMemory, MonitorConfig};
use fluidmem_kv::RamCloudStore;
use fluidmem_sim::{SimClock, SimRng};
use fluidmem_swap::{SwapBackedMemory, SwapConfig};
use fluidmem_vm::{
    Balloon, GuestOsProfile, IcmpService, ServiceError, SshService, VirtualizationMode, Vm,
};

fn yes_no(b: bool) -> &'static str {
    if b {
        "Yes"
    } else {
        "No"
    }
}

fn fluidmem_vm(seed: u64) -> Vm {
    let clock = SimClock::new();
    let store = RamCloudStore::new(2 << 30, clock.clone(), SimRng::seed_from_u64(seed));
    let backend = FluidMemMemory::new(
        MonitorConfig::new(1 << 20),
        Box::new(store),
        PartitionId::new(0),
        clock,
        SimRng::seed_from_u64(seed + 1),
    );
    Vm::boot(Box::new(backend), GuestOsProfile::paper_boot())
}

fn probe(vm: &mut Vm) -> (bool, bool) {
    let ssh = SshService::new().attempt_login(vm).is_ok();
    let icmp = IcmpService::new().respond(vm).is_ok();
    (ssh, icmp)
}

fn revive(vm: &mut Vm) -> bool {
    // "Afterward, if the LRU size is increased, the VM will instantly
    // return to normal responsiveness."
    vm.backend_mut().set_local_capacity(1 << 20).ok();
    SshService::new().attempt_login(vm).is_ok()
}

fn main() {
    let args = HarnessArgs::parse(1, &[]);
    banner(
        "Table III: reducing a VM's footprint toward one page",
        "booted CentOS-like guest (81042 pages); SSH timeout 10s, ICMP probe 1s",
    );
    let mut table = TextTable::new(vec![
        "row",
        "footprint (pages)",
        "footprint (MB)",
        "SSH",
        "ICMP",
        "revived",
        "paper",
    ]);

    // Row 1: after startup (no footprint enforcement).
    {
        let mut vm = fluidmem_vm(args.seed);
        let pages = vm.footprint_pages();
        let (ssh, icmp) = probe(&mut vm);
        table.row(vec![
            "After startup".to_string(),
            pages.to_string(),
            format!("{:.3}", vm.footprint_mb()),
            yes_no(ssh).to_string(),
            yes_no(icmp).to_string(),
            "N/A".to_string(),
            "81042 / 316.570 / Yes / Yes".to_string(),
        ]);
    }

    // Row 2: the balloon baseline on a swap-backed VM.
    {
        let clock = SimClock::new();
        let swap_dev = PmemDevice::new(1 << 18, clock.clone(), SimRng::seed_from_u64(args.seed));
        let fs_dev = SsdDevice::new(1 << 18, clock.clone(), SimRng::seed_from_u64(args.seed + 1));
        let backend = SwapBackedMemory::new(
            SwapConfig::paper_default(300_000),
            Box::new(swap_dev),
            Box::new(fs_dev),
            clock,
            SimRng::seed_from_u64(args.seed + 2),
        );
        let mut vm = Vm::boot(Box::new(backend), GuestOsProfile::paper_boot());
        let mut balloon = Balloon::new();
        let achieved = balloon.inflate(vm.backend_mut(), 0);
        let (ssh, icmp) = probe(&mut vm);
        table.row(vec![
            "Max VM balloon size".to_string(),
            achieved.to_string(),
            format!("{:.3}", achieved as f64 * 4096.0 / (1024.0 * 1024.0)),
            yes_no(ssh).to_string(),
            yes_no(icmp).to_string(),
            "N/A".to_string(),
            "20480 / 64.750 / Yes / Yes".to_string(),
        ]);
    }

    // Rows 3-4: FluidMem under KVM at 180 and 80 pages.
    for (pages, paper) in [
        (180u64, "180 / 0.703 / Yes / Yes / Yes"),
        (80, "80 / 0.300 / No / Yes / Yes"),
    ] {
        let mut vm = fluidmem_vm(args.seed + pages);
        vm.backend_mut().set_local_capacity(pages).unwrap();
        let (ssh, icmp) = probe(&mut vm);
        let revived = revive(&mut vm);
        table.row(vec![
            format!("FluidMem (KVM), {pages} pages"),
            pages.to_string(),
            format!("{:.3}", pages as f64 * 4096.0 / (1024.0 * 1024.0)),
            yes_no(ssh).to_string(),
            yes_no(icmp).to_string(),
            yes_no(revived).to_string(),
            paper.to_string(),
        ]);
    }

    // Row 5: one page needs full virtualization (KVM deadlocks because
    // fault handling triggers recursive faults).
    {
        let mut vm = fluidmem_vm(args.seed + 99);
        vm.backend_mut().set_local_capacity(1).unwrap();
        let kvm_ssh = SshService::new().attempt_login(&mut vm);
        assert!(
            matches!(kvm_ssh, Err(ServiceError::Deadlocked)),
            "KVM at one page must deadlock, got {kvm_ssh:?}"
        );
        vm.set_mode(VirtualizationMode::FullEmulation);
        let (ssh, icmp) = probe(&mut vm);
        let revived = revive(&mut vm);
        table.row(vec![
            "FluidMem (full virtualization), 1 page".to_string(),
            "1".to_string(),
            "0.004".to_string(),
            yes_no(ssh).to_string(),
            yes_no(icmp).to_string(),
            yes_no(revived).to_string(),
            "1 / 0.004 / No / No / Yes".to_string(),
        ]);
    }

    table.print();
    println!("\n(KVM hardware-assisted virtualization deadlocks at one page; full");
    println!("virtualization keeps the VM functional though non-responsive, and");
    println!("increasing the LRU size revives every FluidMem configuration.)");
}
