//! C ABI for Orpheus.
//!
//! The paper provides Python bindings so Orpheus can be "embedded in other
//! experimental workflows"; this crate is the reproduction's equivalent: a
//! `cdylib` exposing engine/network lifecycle and inference over a plain C
//! calling convention, loadable from Python (`ctypes`), C, or anything else
//! with an FFI.
//!
//! ## Conventions
//!
//! * Every fallible function returns an [`OrpheusStatus`] code; `0` is
//!   success.
//! * Object lifetimes are explicit: every `*_new`/`*_load` has a matching
//!   `*_free`. Passing null where an object is required returns
//!   [`ORPHEUS_STATUS_NULL_ARGUMENT`]; freeing null is a no-op.
//! * On failure, [`orpheus_last_error_message`] retrieves a thread-local
//!   human-readable description.
//!
//! ## Safety
//!
//! This crate and `orpheus-gemm::simd` (the AVX2+FMA micro-kernel, opted in
//! with a module-level `#[allow(unsafe_code)]`) are the only places in the
//! workspace with `unsafe` code; every other crate carries
//! `#![forbid(unsafe_code)]`. Here all of it is FFI pointer handling at the
//! boundary. The contract, uniform across entry
//! points and repeated in each function's `# Safety` section:
//!
//! * Handle pointers (`*mut OrpheusEngine`, `*mut OrpheusNetwork`) must be
//!   null or values previously returned by this library that have not been
//!   freed. Double-free and use-after-free are undefined behaviour, exactly
//!   as in any C API.
//! * Buffer pointers must be null or valid for the byte/element length
//!   passed alongside them; lengths are trusted.
//! * C strings must be null or NUL-terminated.
//!
//! Null never trips UB — every entry point checks pointers before
//! dereferencing and returns [`ORPHEUS_STATUS_NULL_ARGUMENT`]. Beyond the
//! boundary checks, no `unsafe` appears in the call paths: handles wrap
//! ordinary safe Rust objects from `orpheus-core`.
//!
//! ## Python sketch
//!
//! ```python
//! lib = ctypes.CDLL("liborpheus_capi.so")
//! engine = ctypes.c_void_p()
//! lib.orpheus_engine_new(b"orpheus", 1, ctypes.byref(engine))
//! network = ctypes.c_void_p()
//! lib.orpheus_engine_load_onnx(engine, model_bytes, len(model_bytes),
//!                              ctypes.byref(network))
//! out = (ctypes.c_float * 1000)()
//! written = ctypes.c_size_t()
//! lib.orpheus_network_run(network, image, len(image), out, 1000,
//!                         ctypes.byref(written))
//! ```

use std::cell::RefCell;
use std::ffi::{c_char, CStr};

use orpheus::{Engine, Network, Personality, Session};
use orpheus_tensor::Tensor;

/// Status codes returned by every fallible entry point.
pub type OrpheusStatus = i32;

/// The call succeeded.
pub const ORPHEUS_STATUS_OK: OrpheusStatus = 0;
/// A required pointer argument was null.
pub const ORPHEUS_STATUS_NULL_ARGUMENT: OrpheusStatus = 1;
/// A string argument was not valid UTF-8 or named an unknown entity.
pub const ORPHEUS_STATUS_INVALID_ARGUMENT: OrpheusStatus = 2;
/// The engine rejected the configuration (e.g. tflite-sim thread policy).
pub const ORPHEUS_STATUS_CONFIG: OrpheusStatus = 3;
/// Model loading failed (bad ONNX bytes, unsupported ops...).
pub const ORPHEUS_STATUS_LOAD: OrpheusStatus = 4;
/// Inference failed (shape mismatch, undersized buffer...).
pub const ORPHEUS_STATUS_RUN: OrpheusStatus = 5;

thread_local! {
    static LAST_ERROR: RefCell<String> = const { RefCell::new(String::new()) };
}

fn set_error(msg: impl Into<String>) {
    LAST_ERROR.with(|slot| *slot.borrow_mut() = msg.into());
}

/// Opaque engine handle.
pub struct OrpheusEngine {
    engine: Engine,
}

/// Opaque network handle.
pub struct OrpheusNetwork {
    network: Network,
}

/// Opaque session handle: a reusable execution context whose activation
/// arena is preallocated once and recycled across runs.
pub struct OrpheusSession {
    session: Session,
}

/// Creates an engine.
///
/// `personality` is a NUL-terminated name (`"orpheus"`, `"tvm-sim"`,
/// `"pytorch-sim"`, `"darknet-sim"`, `"tflite-sim"`); `threads` must be
/// positive. On success writes a handle to `out`.
///
/// # Safety
///
/// `personality` must be a valid NUL-terminated C string and `out` a valid
/// pointer; the returned handle must be released with
/// [`orpheus_engine_free`].
#[no_mangle]
pub unsafe extern "C" fn orpheus_engine_new(
    personality: *const c_char,
    threads: usize,
    out: *mut *mut OrpheusEngine,
) -> OrpheusStatus {
    if personality.is_null() || out.is_null() {
        set_error("null argument to orpheus_engine_new");
        return ORPHEUS_STATUS_NULL_ARGUMENT;
    }
    let Ok(name) = CStr::from_ptr(personality).to_str() else {
        set_error("personality name is not valid UTF-8");
        return ORPHEUS_STATUS_INVALID_ARGUMENT;
    };
    let Some(personality) = Personality::from_name(name) else {
        set_error(format!("unknown personality {name:?}"));
        return ORPHEUS_STATUS_INVALID_ARGUMENT;
    };
    match Engine::builder()
        .personality(personality)
        .threads(threads)
        .build()
    {
        Ok(engine) => {
            *out = Box::into_raw(Box::new(OrpheusEngine { engine }));
            ORPHEUS_STATUS_OK
        }
        Err(e) => {
            set_error(e.to_string());
            ORPHEUS_STATUS_CONFIG
        }
    }
}

/// Releases an engine. Freeing null is a no-op.
///
/// # Safety
///
/// `engine` must be null or a handle from [`orpheus_engine_new`] not yet
/// freed.
#[no_mangle]
pub unsafe extern "C" fn orpheus_engine_free(engine: *mut OrpheusEngine) {
    if !engine.is_null() {
        drop(Box::from_raw(engine));
    }
}

/// Loads an ONNX model from a byte buffer; writes a network handle to `out`.
///
/// # Safety
///
/// `engine` must be a live engine handle, `bytes` must point to `len`
/// readable bytes, `out` must be a valid pointer; the returned handle must
/// be released with [`orpheus_network_free`].
#[no_mangle]
pub unsafe extern "C" fn orpheus_engine_load_onnx(
    engine: *const OrpheusEngine,
    bytes: *const u8,
    len: usize,
    out: *mut *mut OrpheusNetwork,
) -> OrpheusStatus {
    if engine.is_null() || bytes.is_null() || out.is_null() {
        set_error("null argument to orpheus_engine_load_onnx");
        return ORPHEUS_STATUS_NULL_ARGUMENT;
    }
    let slice = std::slice::from_raw_parts(bytes, len);
    match (*engine).engine.load_onnx(slice) {
        Ok(network) => {
            *out = Box::into_raw(Box::new(OrpheusNetwork { network }));
            ORPHEUS_STATUS_OK
        }
        Err(e) => {
            set_error(e.to_string());
            ORPHEUS_STATUS_LOAD
        }
    }
}

/// Releases a network. Freeing null is a no-op.
///
/// # Safety
///
/// `network` must be null or a handle from [`orpheus_engine_load_onnx`] not
/// yet freed.
#[no_mangle]
pub unsafe extern "C" fn orpheus_network_free(network: *mut OrpheusNetwork) {
    if !network.is_null() {
        drop(Box::from_raw(network));
    }
}

/// Number of executable layers in the network.
///
/// # Safety
///
/// `network` must be a live network handle.
#[no_mangle]
pub unsafe extern "C" fn orpheus_network_num_layers(network: *const OrpheusNetwork) -> usize {
    if network.is_null() {
        return 0;
    }
    (*network).network.num_layers()
}

/// Writes the expected input dims (`[n, c, h, w]`) to `dims_out[0..4]`.
///
/// # Safety
///
/// `network` must be a live network handle and `dims_out` must point to at
/// least 4 writable `usize`s.
#[no_mangle]
pub unsafe extern "C" fn orpheus_network_input_dims(
    network: *const OrpheusNetwork,
    dims_out: *mut usize,
) -> OrpheusStatus {
    if network.is_null() || dims_out.is_null() {
        set_error("null argument to orpheus_network_input_dims");
        return ORPHEUS_STATUS_NULL_ARGUMENT;
    }
    let dims = (*network).network.input_dims();
    if dims.len() != 4 {
        set_error(format!("model input is rank {}, expected 4", dims.len()));
        return ORPHEUS_STATUS_RUN;
    }
    for (i, &d) in dims.iter().enumerate() {
        *dims_out.add(i) = d;
    }
    ORPHEUS_STATUS_OK
}

/// Runs one inference.
///
/// `input` must hold exactly the product of the model's input dims floats
/// (NCHW). The output is copied into `output` (capacity `output_capacity`
/// floats) and its length written to `written_out`.
///
/// # Safety
///
/// `network` must be a live network handle; `input` must point to
/// `input_len` readable floats; `output` to `output_capacity` writable
/// floats; `written_out` must be valid.
#[no_mangle]
pub unsafe extern "C" fn orpheus_network_run(
    network: *const OrpheusNetwork,
    input: *const f32,
    input_len: usize,
    output: *mut f32,
    output_capacity: usize,
    written_out: *mut usize,
) -> OrpheusStatus {
    if network.is_null() || input.is_null() || output.is_null() || written_out.is_null() {
        set_error("null argument to orpheus_network_run");
        return ORPHEUS_STATUS_NULL_ARGUMENT;
    }
    let net = &(*network).network;
    let dims = net.input_dims().to_vec();
    let expected: usize = dims.iter().product();
    if input_len != expected {
        set_error(format!(
            "input has {input_len} floats, model expects {expected} ({dims:?})"
        ));
        return ORPHEUS_STATUS_RUN;
    }
    let in_slice = std::slice::from_raw_parts(input, input_len);
    let tensor = match Tensor::from_vec(in_slice.to_vec(), &dims) {
        Ok(t) => t,
        Err(e) => {
            set_error(e.to_string());
            return ORPHEUS_STATUS_RUN;
        }
    };
    match net.run(&tensor) {
        Ok(result) => {
            let data = result.as_slice();
            if data.len() > output_capacity {
                set_error(format!(
                    "output needs {} floats, buffer holds {output_capacity}",
                    data.len()
                ));
                return ORPHEUS_STATUS_RUN;
            }
            std::ptr::copy_nonoverlapping(data.as_ptr(), output, data.len());
            *written_out = data.len();
            ORPHEUS_STATUS_OK
        }
        Err(e) => {
            set_error(e.to_string());
            ORPHEUS_STATUS_RUN
        }
    }
}

/// Creates a reusable inference session for a network.
///
/// The session owns a preallocated activation arena sized by the network's
/// static memory plan; repeated [`orpheus_session_run`] calls recycle it
/// instead of allocating. The session shares the network's (immutable)
/// execution plan, so the network handle may be freed before the session.
///
/// # Safety
///
/// `network` must be a live network handle and `out` a valid pointer; the
/// returned handle must be released with [`orpheus_session_free`] and must
/// not be used from two threads at once (sessions are single-flight; create
/// one session per thread to run concurrently).
#[no_mangle]
pub unsafe extern "C" fn orpheus_session_new(
    network: *const OrpheusNetwork,
    out: *mut *mut OrpheusSession,
) -> OrpheusStatus {
    if network.is_null() || out.is_null() {
        set_error("null argument to orpheus_session_new");
        return ORPHEUS_STATUS_NULL_ARGUMENT;
    }
    let session = (*network).network.session();
    *out = Box::into_raw(Box::new(OrpheusSession { session }));
    ORPHEUS_STATUS_OK
}

/// Runs one inference through a session, recycling its activation arena.
///
/// Argument and buffer semantics are identical to [`orpheus_network_run`];
/// the difference is steady-state cost — after the first call the session
/// performs no activation allocations.
///
/// # Safety
///
/// `session` must be a live session handle (exclusive to this call —
/// sessions are not thread-safe); `input` must point to `input_len`
/// readable floats; `output` to `output_capacity` writable floats;
/// `written_out` must be valid.
#[no_mangle]
pub unsafe extern "C" fn orpheus_session_run(
    session: *mut OrpheusSession,
    input: *const f32,
    input_len: usize,
    output: *mut f32,
    output_capacity: usize,
    written_out: *mut usize,
) -> OrpheusStatus {
    if session.is_null() || input.is_null() || output.is_null() || written_out.is_null() {
        set_error("null argument to orpheus_session_run");
        return ORPHEUS_STATUS_NULL_ARGUMENT;
    }
    let in_slice = std::slice::from_raw_parts(input, input_len);
    let dims = (*session).session.input_dims().to_vec();
    let expected: usize = dims.iter().product();
    if input_len != expected {
        set_error(format!(
            "input has {input_len} floats, model expects {expected} ({dims:?})"
        ));
        return ORPHEUS_STATUS_RUN;
    }
    let tensor = match Tensor::from_vec(in_slice.to_vec(), &dims) {
        Ok(t) => t,
        Err(e) => {
            set_error(e.to_string());
            return ORPHEUS_STATUS_RUN;
        }
    };
    match (*session).session.run(&tensor) {
        Ok(result) => {
            let data = result.as_slice();
            if data.len() > output_capacity {
                set_error(format!(
                    "output needs {} floats, buffer holds {output_capacity}",
                    data.len()
                ));
                return ORPHEUS_STATUS_RUN;
            }
            std::ptr::copy_nonoverlapping(data.as_ptr(), output, data.len());
            *written_out = data.len();
            ORPHEUS_STATUS_OK
        }
        Err(e) => {
            set_error(e.to_string());
            ORPHEUS_STATUS_RUN
        }
    }
}

/// Releases a session. Freeing null is a no-op.
///
/// # Safety
///
/// `session` must be null or a handle from [`orpheus_session_new`] not yet
/// freed.
#[no_mangle]
pub unsafe extern "C" fn orpheus_session_free(session: *mut OrpheusSession) {
    if !session.is_null() {
        drop(Box::from_raw(session));
    }
}

/// Copies the thread-local last error message (NUL-terminated, truncated to
/// `capacity`) into `buf`; returns the untruncated length in bytes.
///
/// # Safety
///
/// `buf` must point to `capacity` writable bytes (or be null to query the
/// length).
#[no_mangle]
pub unsafe extern "C" fn orpheus_last_error_message(buf: *mut c_char, capacity: usize) -> usize {
    LAST_ERROR.with(|slot| {
        let msg = slot.borrow();
        let bytes = msg.as_bytes();
        if !buf.is_null() && capacity > 0 {
            let n = bytes.len().min(capacity - 1);
            std::ptr::copy_nonoverlapping(bytes.as_ptr() as *const c_char, buf, n);
            *buf.add(n) = 0;
        }
        bytes.len()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use orpheus_models::{build_model, ModelKind};
    use orpheus_onnx::export_model;

    fn last_error() -> String {
        let mut buf = vec![0i8; 256];
        unsafe { orpheus_last_error_message(buf.as_mut_ptr(), buf.len()) };
        let bytes: Vec<u8> = buf
            .iter()
            .take_while(|&&c| c != 0)
            .map(|&c| c as u8)
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn full_lifecycle_through_c_abi() {
        let bytes = export_model(&build_model(ModelKind::TinyCnn)).unwrap();
        unsafe {
            let mut engine: *mut OrpheusEngine = std::ptr::null_mut();
            assert_eq!(
                orpheus_engine_new(c"orpheus".as_ptr(), 1, &mut engine),
                ORPHEUS_STATUS_OK
            );
            let mut network: *mut OrpheusNetwork = std::ptr::null_mut();
            assert_eq!(
                orpheus_engine_load_onnx(engine, bytes.as_ptr(), bytes.len(), &mut network),
                ORPHEUS_STATUS_OK
            );
            assert!(orpheus_network_num_layers(network) > 0);
            let mut dims = [0usize; 4];
            assert_eq!(
                orpheus_network_input_dims(network, dims.as_mut_ptr()),
                ORPHEUS_STATUS_OK
            );
            assert_eq!(dims, [1, 3, 8, 8]);

            let input = vec![0.5f32; 3 * 8 * 8];
            let mut output = vec![0.0f32; 16];
            let mut written = 0usize;
            assert_eq!(
                orpheus_network_run(
                    network,
                    input.as_ptr(),
                    input.len(),
                    output.as_mut_ptr(),
                    output.len(),
                    &mut written
                ),
                ORPHEUS_STATUS_OK
            );
            assert_eq!(written, 4);
            let sum: f32 = output[..written].iter().sum();
            assert!((sum - 1.0).abs() < 1e-3, "softmax sums to {sum}");

            orpheus_network_free(network);
            orpheus_engine_free(engine);
        }
    }

    #[test]
    fn error_paths_set_messages() {
        unsafe {
            let mut engine: *mut OrpheusEngine = std::ptr::null_mut();
            assert_eq!(
                orpheus_engine_new(c"not-a-framework".as_ptr(), 1, &mut engine),
                ORPHEUS_STATUS_INVALID_ARGUMENT
            );
            assert!(last_error().contains("not-a-framework"));

            assert_eq!(
                orpheus_engine_new(c"orpheus".as_ptr(), 0, &mut engine),
                ORPHEUS_STATUS_CONFIG
            );

            assert_eq!(
                orpheus_engine_new(c"orpheus".as_ptr(), 1, &mut engine),
                ORPHEUS_STATUS_OK
            );
            let garbage = [0xffu8; 16];
            let mut network: *mut OrpheusNetwork = std::ptr::null_mut();
            assert_eq!(
                orpheus_engine_load_onnx(engine, garbage.as_ptr(), garbage.len(), &mut network),
                ORPHEUS_STATUS_LOAD
            );
            orpheus_engine_free(engine);
        }
    }

    #[test]
    fn run_validates_buffer_sizes() {
        let bytes = export_model(&build_model(ModelKind::TinyCnn)).unwrap();
        unsafe {
            let mut engine: *mut OrpheusEngine = std::ptr::null_mut();
            orpheus_engine_new(c"orpheus".as_ptr(), 1, &mut engine);
            let mut network: *mut OrpheusNetwork = std::ptr::null_mut();
            orpheus_engine_load_onnx(engine, bytes.as_ptr(), bytes.len(), &mut network);

            let input = [0.0f32; 10]; // wrong length
            let mut output = vec![0.0f32; 16];
            let mut written = 0usize;
            assert_eq!(
                orpheus_network_run(
                    network,
                    input.as_ptr(),
                    input.len(),
                    output.as_mut_ptr(),
                    output.len(),
                    &mut written
                ),
                ORPHEUS_STATUS_RUN
            );
            assert!(last_error().contains("expects"));

            // Output buffer too small.
            let input = vec![0.0f32; 192];
            let mut tiny = vec![0.0f32; 1];
            assert_eq!(
                orpheus_network_run(
                    network,
                    input.as_ptr(),
                    input.len(),
                    tiny.as_mut_ptr(),
                    tiny.len(),
                    &mut written
                ),
                ORPHEUS_STATUS_RUN
            );

            orpheus_network_free(network);
            orpheus_engine_free(engine);
        }
    }

    #[test]
    fn freeing_null_is_noop() {
        unsafe {
            orpheus_engine_free(std::ptr::null_mut());
            orpheus_network_free(std::ptr::null_mut());
            orpheus_session_free(std::ptr::null_mut());
        }
        assert_eq!(unsafe { orpheus_network_num_layers(std::ptr::null()) }, 0);
    }

    #[test]
    fn session_reuses_across_runs_and_outlives_network() {
        let bytes = export_model(&build_model(ModelKind::TinyCnn)).unwrap();
        unsafe {
            let mut engine: *mut OrpheusEngine = std::ptr::null_mut();
            orpheus_engine_new(c"orpheus".as_ptr(), 1, &mut engine);
            let mut network: *mut OrpheusNetwork = std::ptr::null_mut();
            orpheus_engine_load_onnx(engine, bytes.as_ptr(), bytes.len(), &mut network);

            let mut session: *mut OrpheusSession = std::ptr::null_mut();
            assert_eq!(
                orpheus_session_new(network, &mut session),
                ORPHEUS_STATUS_OK
            );

            // One-shot answer to compare the session against.
            let input = vec![0.25f32; 3 * 8 * 8];
            let mut expected = vec![0.0f32; 16];
            let mut written = 0usize;
            assert_eq!(
                orpheus_network_run(
                    network,
                    input.as_ptr(),
                    input.len(),
                    expected.as_mut_ptr(),
                    expected.len(),
                    &mut written
                ),
                ORPHEUS_STATUS_OK
            );

            // The session shares the plan, not the network handle.
            orpheus_network_free(network);

            let mut output = vec![0.0f32; 16];
            for _ in 0..3 {
                let mut got = 0usize;
                assert_eq!(
                    orpheus_session_run(
                        session,
                        input.as_ptr(),
                        input.len(),
                        output.as_mut_ptr(),
                        output.len(),
                        &mut got
                    ),
                    ORPHEUS_STATUS_OK
                );
                assert_eq!(got, written);
                assert_eq!(&output[..got], &expected[..written]);
            }

            // Bad input length errors without poisoning the session.
            let short = [0.0f32; 3];
            let mut got = 0usize;
            assert_eq!(
                orpheus_session_run(
                    session,
                    short.as_ptr(),
                    short.len(),
                    output.as_mut_ptr(),
                    output.len(),
                    &mut got
                ),
                ORPHEUS_STATUS_RUN
            );
            assert!(last_error().contains("expects"));
            assert_eq!(
                orpheus_session_run(
                    session,
                    input.as_ptr(),
                    input.len(),
                    output.as_mut_ptr(),
                    output.len(),
                    &mut got
                ),
                ORPHEUS_STATUS_OK
            );

            orpheus_session_free(session);
            orpheus_engine_free(engine);
        }
    }

    #[test]
    fn tflite_thread_policy_surfaces_through_abi() {
        unsafe {
            let mut engine: *mut OrpheusEngine = std::ptr::null_mut();
            let max = orpheus_threads_max();
            let status = orpheus_engine_new(c"tflite-sim".as_ptr(), max + 1, &mut engine);
            assert_eq!(status, ORPHEUS_STATUS_CONFIG);
            assert!(last_error().contains("maximum number of threads"));
        }
    }

    fn orpheus_threads_max() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}
