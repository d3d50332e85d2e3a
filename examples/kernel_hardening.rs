//! VeilS-KCI walkthrough: kernel code integrity against rootkits.
//!
//! The §6.1 scenario: attackers inject code by overwriting kernel text
//! or loading malicious modules. VeilS-KCI enforces W⊕X in the RMP —
//! below the kernel's own page tables — and verifies module signatures
//! TOCTOU-safely in `Dom_SER`.
//!
//! Run with: `cargo run --example kernel_hardening`

use veil::prelude::*;
use veil_core::cvm::VENDOR_KEY;
use veil_os::error::{OsError, Refusal};
use veil_os::module::ModuleImage;
use veil_snp::mem::gpa_of;
use veil_snp::perms::{Cpl, Vmpl};

fn main() {
    let mut cvm = CvmBuilder::new().frames(4096).vcpus(1).build().expect("boot");
    println!("== VeilS-KCI active: kernel W⊕X enforced in the RMP ==");

    // 1. Direct code injection into kernel text.
    let text = cvm.gate.monitor.layout.kernel_text.start;
    let inject = cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(text), b"\x90\x90\xcc");
    println!("overwrite kernel text        -> {inject:?}");
    assert!(inject.is_err());

    // 2. Turning a data page into supervisor code.
    let data = cvm.gate.monitor.layout.kernel_data.start;
    let exec = cvm.hv.machine.check_exec(Vmpl::Vmpl3, Cpl::Cpl0, gpa_of(data));
    println!("supervisor-exec kernel data  -> {exec:?}");
    assert!(exec.is_err());

    // 3. A legitimate, vendor-signed driver loads fine (via Dom_SER).
    let driver = ModuleImage::build_signed("virtio_net", 16 * 1024, &VENDOR_KEY);
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.load_module(&mut ctx, &driver).expect("signed module loads");
    }
    let module = &cvm.kernel.modules["virtio_net"];
    println!(
        "signed module 'virtio_net' installed across {} write-protected pages",
        module.text_gfns.len()
    );
    let patch = cvm.hv.machine.write(Vmpl::Vmpl3, gpa_of(module.text_gfns[0]), b"hook");
    println!("patch installed module text  -> {patch:?}");
    assert!(patch.is_err());

    // 4. A rootkit with a broken signature is rejected by the service.
    let mut rootkit = ModuleImage::build_signed("rootkit", 8 * 1024, &VENDOR_KEY);
    rootkit.text[0] ^= 0xff; // tampered after signing
    let refused = {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.load_module(&mut ctx, &rootkit)
    };
    println!("load tampered 'rootkit'      -> {refused:?}");
    assert_eq!(refused, Err(OsError::Refused(Refusal::BadModuleSignature)));
    assert_eq!(cvm.gate.services.kci.rejected, 1);

    // 5. The OS cannot abuse unload to strip protection from other pages.
    let victim = cvm.gate.monitor.layout.kernel_pool.start + 3;
    let strip = {
        let (_, ctx) = cvm.kctx();
        ctx.gate.request(
            ctx.hv,
            0,
            veil_os::monitor::MonRequest::KciModuleUnload { text_gfns: vec![victim] },
        )
    };
    println!("forged unload request        -> {strip:?}");
    assert_eq!(strip, Err(OsError::Refused(Refusal::ModuleNotLoaded)));

    // 6. Honest unload restores the memory for reuse, scrubbed.
    {
        let (kernel, mut ctx) = cvm.kctx();
        kernel.unload_module(&mut ctx, "virtio_net").expect("unload");
    }
    println!("module unloaded; frames returned to the kernel pool");
    println!(
        "\nKCI stats: {} loads, {} unloads, {} rejected",
        cvm.gate.services.kci.loads, cvm.gate.services.kci.unloads, cvm.gate.services.kci.rejected
    );
}
