//! A minimal `dlopen` wrapper — just enough loader to resolve one kernel
//! symbol, with no external dependency.
//!
//! Unix only: on other platforms loading reports [`AotError::LoadFailed`]
//! and the caller falls back to the simd tier (the same "missing
//! capability is a decline, not a fault" contract as a missing
//! toolchain).

use std::ffi::{CStr, CString};
use std::path::Path;

use crate::error::{AotError, Result};

#[cfg(unix)]
mod ffi {
    use std::os::raw::{c_char, c_int, c_void};

    pub const RTLD_NOW: c_int = 2;

    extern "C" {
        pub fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        pub fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        pub fn dlclose(handle: *mut c_void) -> c_int;
        pub fn dlerror() -> *mut c_char;
    }
}

/// An open dynamic library. Closed on drop; the kernel handle keeps an
/// `Arc` alive for as long as any function pointer into it exists.
#[derive(Debug)]
pub struct Dylib {
    #[cfg(unix)]
    handle: *mut std::os::raw::c_void,
}

// SAFETY: the handle is an opaque loader token; `dlsym`/`dlclose` are
// thread-safe, and the wrapper exposes no interior mutability.
unsafe impl Send for Dylib {}
// SAFETY: as for `Send`: shared references only ever pass the handle to
// the thread-safe `dlsym`.
unsafe impl Sync for Dylib {}

#[cfg(unix)]
fn last_dl_error() -> String {
    // SAFETY: `dlerror` returns either null or a pointer to a
    // NUL-terminated string owned by the loader, valid until the next
    // dl* call on this thread.
    unsafe {
        let msg = ffi::dlerror();
        if msg.is_null() {
            "unknown dlerror".to_string()
        } else {
            CStr::from_ptr(msg).to_string_lossy().into_owned()
        }
    }
}

impl Dylib {
    /// Opens `path` with immediate binding (`RTLD_NOW`, so a missing
    /// relocation fails here rather than at the first kernel call).
    #[cfg(unix)]
    pub fn open(path: &Path) -> Result<Dylib> {
        let c_path = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| load_failed(path, "path contains a NUL byte"))?;
        // SAFETY: a valid NUL-terminated path; flags are a supported
        // constant.
        let handle = unsafe { ffi::dlopen(c_path.as_ptr(), ffi::RTLD_NOW) };
        if handle.is_null() {
            return Err(load_failed(path, &last_dl_error()));
        }
        Ok(Dylib { handle })
    }

    /// Loading is unavailable off Unix: a decline, handled by fallback.
    #[cfg(not(unix))]
    pub fn open(path: &Path) -> Result<Dylib> {
        Err(load_failed(path, "dynamic loading is only supported on unix hosts"))
    }

    /// Resolves `symbol` to a raw pointer.
    #[cfg(unix)]
    pub fn symbol(&self, symbol: &str) -> Result<*mut std::os::raw::c_void> {
        let c_sym =
            CString::new(symbol).map_err(|_| AotError::SymbolMissing { symbol: symbol.to_string() })?;
        // SAFETY: a live handle (self owns it) and a valid NUL-terminated
        // symbol name.
        let ptr = unsafe { ffi::dlsym(self.handle, c_sym.as_ptr()) };
        if ptr.is_null() {
            return Err(AotError::SymbolMissing { symbol: symbol.to_string() });
        }
        Ok(ptr)
    }

    /// Resolving is unavailable off Unix.
    #[cfg(not(unix))]
    pub fn symbol(&self, symbol: &str) -> Result<*mut std::ffi::c_void> {
        Err(AotError::SymbolMissing { symbol: symbol.to_string() })
    }
}

impl Drop for Dylib {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: the handle came from a successful `dlopen` and is
        // closed exactly once.
        unsafe {
            ffi::dlclose(self.handle);
        }
    }
}

fn load_failed(path: &Path, reason: &str) -> AotError {
    AotError::LoadFailed { path: path.display().to_string(), reason: reason.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opening_a_missing_library_is_a_typed_error() {
        let err = Dylib::open(Path::new("/nonexistent/exo-aot-no-such-lib.so"))
            .expect_err("must not open a missing file");
        assert!(matches!(err, AotError::LoadFailed { .. }));
        assert!(err.to_string().contains("exo-aot-no-such-lib"));
    }

    #[cfg(unix)]
    #[test]
    fn opening_garbage_is_a_typed_error_not_a_panic() {
        let path = std::env::temp_dir().join(format!(
            "exo-aot-garbage-{}.{}",
            std::process::id(),
            std::env::consts::DLL_EXTENSION
        ));
        std::fs::write(&path, b"this is not an ELF object").unwrap();
        let err = Dylib::open(&path).expect_err("garbage must not load");
        assert!(matches!(err, AotError::LoadFailed { .. }));
        let _ = std::fs::remove_file(&path);
    }
}
