//! The tier ladder, written once: which execution tier a generated kernel
//! runs a packed call on.
//!
//! A [`GeneratedKernel`] carries two ways to execute the same schedule —
//! `native → superword`, the faster first. The safe superword interpreter,
//! which runs the kernel's whole-vector ops one at a time with every access
//! checked, is built by the generator and always there, so a request for
//! it — a pin — resolves to itself. The native tier is a body compiled
//! when the workspace was built: [`ExecBackend::Native`] serves on the
//! superword interpreter when the build-time table holds no body for the
//! kernel, and that is the ladder's one edge.
//! The scalar tape the superword ops were packed from
//! (`kernel.superword.tape()`) and the reference interpreter
//! (`exo_ir::interp::run_proc` of [`crate::KernelSchedule::proc`]) are not
//! rungs: they are the references every tier computes bit for bit — the
//! promotion probe runs the tape beside each native body, and the tests
//! call both directly.
//! [`GeneratedKernel::dispatcher`] is the **one** function in the workspace
//! that maps a requested [`ExecBackend`] onto the tier that runs, and every
//! entry point — one-shot runs, the handle each GEMM engine holds and calls
//! once per register tile, a pinned tier, the serving layer's degraded
//! retry — goes through it. The handle it returns, [`TierDispatch`], is
//! `exo_codegen`'s: it owns the resolved tier's state.

use std::sync::Arc;

use exo_codegen::{ExecBackend, TierDispatch};

use crate::generator::GeneratedKernel;

impl GeneratedKernel {
    /// The handle that runs `backend`: the requested tier itself, except
    /// that [`ExecBackend::Native`] serves on the superword interpreter
    /// when the kernel has no native body ([`Self::native`]).
    pub fn dispatcher(&self, backend: ExecBackend) -> TierDispatch {
        self.resolve(backend)
            .expect("a generated kernel keeps the reference kernel's packed (KC, Ac, Bc, C) signature")
    }

    /// The ladder: the superword pin resolves to itself, the native one to
    /// the superword interpreter when no body promoted.
    fn resolve(&self, asked: ExecBackend) -> exo_codegen::Result<TierDispatch> {
        use ExecBackend::*;
        let (mr, nr) = (self.mr, self.nr);
        match asked {
            Native => match self.native() {
                Some(body) => TierDispatch::native(body, mr, nr),
                None => self.resolve(Superword),
            },
            Superword => TierDispatch::superword(Arc::clone(&self.superword), mr, nr),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_native_request_without_a_body_serves_on_the_superword_interpreter() {
        use ExecBackend::*;
        // This crate links no table of native bodies, so no kernel has one.
        let kernel = crate::MicroKernelGenerator::new(exo_isa::neon_f32()).generate(8, 12).unwrap();
        assert!(kernel.native().is_none());
        let resolved = [Native, Superword].map(|pin| kernel.dispatcher(pin).tier());
        assert_eq!(resolved, [Superword, Superword]);
        let kc = 9;
        let a: Vec<f32> = (0..kc * 8).map(|i| (i % 7) as f32 * 0.37 - 1.0).collect();
        let b: Vec<f32> = (0..kc * 12).map(|i| (i % 5) as f32 * 0.21 - 0.5).collect();
        let mut handle = kernel.dispatcher(Native);
        let mut outputs = Vec::new();
        for pin in [Native, Superword] {
            let mut c = vec![0.5f32; 96];
            kernel.dispatcher(pin).run(kc, &a, &b, &mut c).unwrap();
            outputs.push(c);
        }
        // The tape the superword ops were packed from is the reference.
        let mut c_tape = vec![0.5f32; 96];
        kernel.superword.tape().run_packed(kc, &a, &b, &mut c_tape).unwrap();
        outputs.push(c_tape);
        let mut c = vec![0.5f32; 96];
        handle.run(kc, &a, &b, &mut c).unwrap();
        assert!(outputs.iter().all(|out| *out == c), "every rung computes the tape's bits");
    }
}
