//! The atomic guarded statements each workload submits. The cluster runs
//! and the per-layer replays build them here, so both send the program
//! the same statements.

use ftlinda::{Ags, MatchField as MF, Operand, TsId, TypeTag, Value};
use linda_tuple::{PatField, Pattern, Tuple};

fn built(b: ftlinda_ags::AgsBuilder) -> Ags {
    b.build().expect("benchmark statements are well formed")
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

// ----- pingpong -------------------------------------------------------

/// `⟨true ⇒ out("ping", i)⟩`
pub fn ping_out(ts: TsId, i: i64) -> Ags {
    Ags::out_one(ts, vec![Operand::cst("ping"), Operand::cst(i)])
}

/// The server's `⟨in("ping", ?i) ⇒ out("pong", i)⟩`.
pub fn pong_server(ts: TsId) -> Ags {
    built(
        Ags::builder()
            .guard_in(ts, vec![MF::actual("ping"), MF::bind(TypeTag::Int)])
            .out(ts, vec![Operand::cst("pong"), Operand::formal(0)]),
    )
}

/// The pinger's `⟨in("pong", i) ⇒⟩`.
pub fn pong_in(ts: TsId, i: i64) -> Ags {
    Ags::in_one(ts, vec![MF::actual("pong"), MF::actual(i)]).expect("pong pattern")
}

// ----- bag_of_tasks ---------------------------------------------------
//
// The workers and the farmer's refills run through
// `linda_paradigms::BagOfTasks`; the task statements below mirror its
// `add_task`, `take_task` and `commit_result` so that the per-layer
// replays feed the same statements to the layers. Payloads travel
// wrapped in a one-field tuple, as the paradigm stores them.

pub fn wrap(v: i64) -> Value {
    Value::Tuple(vec![int(v)])
}

pub fn task_out(ts: TsId, id: i64, payload: i64) -> Ags {
    Ags::out_one(
        ts,
        vec![
            Operand::cst("subtask"),
            Operand::cst(id),
            Operand::Const(wrap(payload)),
        ],
    )
}

pub fn task_take(ts: TsId) -> Ags {
    built(
        Ags::builder()
            .guard_in(
                ts,
                vec![
                    MF::actual("subtask"),
                    MF::bind(TypeTag::Int),
                    MF::bind(TypeTag::Tuple),
                ],
            )
            .out(
                ts,
                vec![
                    Operand::cst("inprog"),
                    Operand::SelfHost,
                    Operand::formal(0),
                    Operand::formal(1),
                ],
            ),
    )
}

pub fn task_commit(ts: TsId, host: u32, id: i64, payload: i64, result: i64) -> Ags {
    built(
        Ags::builder()
            .guard_in(
                ts,
                vec![
                    MF::actual("inprog"),
                    MF::actual(i64::from(host)),
                    MF::actual(id),
                    MF::Expr(Operand::Const(wrap(payload))),
                ],
            )
            .out(
                ts,
                vec![
                    Operand::cst("result"),
                    Operand::cst(id),
                    Operand::Const(wrap(result)),
                ],
            )
            .or()
            .guard_true(),
    )
}

/// The farmer's `⟨in("result", ?id, ?r) ⇒⟩`.
pub fn result_collect(ts: TsId) -> Ags {
    Ags::in_one(
        ts,
        vec![
            MF::actual("result"),
            MF::bind(TypeTag::Int),
            MF::bind(TypeTag::Tuple),
        ],
    )
    .expect("result pattern")
}

// ----- tuples and patterns, for the store and codec replays ----------

pub fn tuple(head: &str, rest: Vec<Value>) -> Tuple {
    let mut fields = vec![Value::Str(head.into())];
    fields.extend(rest);
    Tuple::new(fields)
}

/// A pattern with a constant head; `Err(tag)` fields are formals of `tag`.
pub fn pattern(head: &str, rest: Vec<Result<Value, TypeTag>>) -> Pattern {
    let mut fields = vec![PatField::Actual(Value::Str(head.into()))];
    fields.extend(rest.into_iter().map(|f| match f {
        Ok(v) => PatField::Actual(v),
        Err(tag) => PatField::Formal(tag),
    }));
    Pattern::new(fields)
}
