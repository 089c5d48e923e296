//! Dense maps keyed by heap references.
//!
//! Object and array refs are dense `u32`s handed out in allocation order
//! and never freed, and the trace replayer's shadow heap hands out the
//! same ids as the live heap. A map from refs can therefore be two plain
//! vectors indexed by the ref: a lookup is one bounds check and one load,
//! with no hashing. The profiler does one such lookup or insert on every
//! heap access and allocation, so this sits on the per-event path.

use crate::snapshot::ElemKey;

/// A map from object and array references to `V`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RefTable<V> {
    objs: Vec<Option<V>>,
    arrs: Vec<Option<V>>,
}

impl<V: Copy> RefTable<V> {
    /// An empty table.
    pub(crate) fn new() -> Self {
        RefTable {
            objs: Vec::new(),
            arrs: Vec::new(),
        }
    }

    /// The value stored for `key`. Primitive keys are never stored.
    #[inline]
    pub(crate) fn get(&self, key: ElemKey) -> Option<V> {
        let (slots, i) = match key {
            ElemKey::Obj(o) => (&self.objs, o.0),
            ElemKey::Arr(a) => (&self.arrs, a.0),
            ElemKey::Int(_) => return None,
        };
        slots.get(i as usize).copied().flatten()
    }

    /// Maps `key` to `value`, returning the value it replaced.
    ///
    /// # Panics
    ///
    /// On a primitive key ([`ElemKey::Int`]): only references have
    /// identity.
    #[inline]
    pub(crate) fn insert(&mut self, key: ElemKey, value: V) -> Option<V> {
        let (slots, i) = match key {
            ElemKey::Obj(o) => (&mut self.objs, o.0 as usize),
            ElemKey::Arr(a) => (&mut self.arrs, a.0 as usize),
            ElemKey::Int(v) => panic!("RefTable keys are references, got the value {v}"),
        };
        if i >= slots.len() {
            slots.resize(i + 1, None);
        }
        slots[i].replace(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use algoprof_vm::{ArrRef, ObjRef};

    #[test]
    fn objects_and_arrays_are_separate_key_spaces() {
        let mut t = RefTable::new();
        assert_eq!(t.insert(ElemKey::Obj(ObjRef(3)), 'o'), None);
        assert_eq!(t.insert(ElemKey::Arr(ArrRef(3)), 'a'), None);
        assert_eq!(t.get(ElemKey::Obj(ObjRef(3))), Some('o'));
        assert_eq!(t.get(ElemKey::Arr(ArrRef(3))), Some('a'));
        assert_eq!(t.get(ElemKey::Obj(ObjRef(2))), None);
        assert_eq!(t.get(ElemKey::Arr(ArrRef(9))), None);
        assert_eq!(t.get(ElemKey::Int(3)), None);
    }

    #[test]
    fn insert_returns_the_replaced_value() {
        let mut t = RefTable::new();
        t.insert(ElemKey::Obj(ObjRef(0)), 1);
        assert_eq!(t.insert(ElemKey::Obj(ObjRef(0)), 2), Some(1));
        assert_eq!(t.get(ElemKey::Obj(ObjRef(0))), Some(2));
    }
}
