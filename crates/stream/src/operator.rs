//! The stream-operator abstraction.
//!
//! datAcron's real-time layer is a chain of record-at-a-time transformations
//! with per-entity state (cleaning → statistics → synopses → …). An
//! [`Operator`] maps one input record to zero or more outputs. Keying by
//! entity and data-parallel execution live elsewhere: the real-time layer
//! keeps one operator instance per entity, and [`crate::parallel`] shards
//! entities across worker threads.

/// A stateful record-at-a-time stream transformer.
pub trait Operator<I, O> {
    /// Processes one record, appending any outputs to `out`.
    fn on_record(&mut self, input: I, out: &mut Vec<O>);

    /// Flushes any buffered state at end-of-stream.
    fn on_flush(&mut self, _out: &mut Vec<O>) {}

    /// Convenience: runs the operator over an entire finite stream.
    fn run(&mut self, inputs: impl IntoIterator<Item = I>) -> Vec<O>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        for i in inputs {
            self.on_record(i, &mut out);
        }
        self.on_flush(&mut out);
        out
    }
}

/// Blanket operator for plain closures (stateless map/filter/flat-map).
impl<I, O, F> Operator<I, O> for F
where
    F: FnMut(I, &mut Vec<O>),
{
    fn on_record(&mut self, input: I, out: &mut Vec<O>) {
        self(input, out)
    }
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_operator_maps_and_filters() {
        let mut double_evens = |x: u64, out: &mut Vec<u64>| {
            if x.is_multiple_of(2) {
                out.push(x * 2);
            }
        };
        let outputs = double_evens.run(0..6);
        assert_eq!(outputs, vec![0, 4, 8]);
    }
}
