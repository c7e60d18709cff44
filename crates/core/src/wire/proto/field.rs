//! How each field type travels on both wires: one [`Field`] impl per
//! type, holding its v2 binary form next to its v1 JSON form. The
//! message table in [`super`] strings these together per variant, so a
//! type's encoding is written once however many messages carry it.
//!
//! The contract every impl keeps:
//!
//! * **v2** — `write` appends the binary form, `read` reads exactly
//!   those bytes back. Every length prefix is read with [`R::count`], so
//!   a count is refused before anything is allocated for it unless its
//!   items fit in the bytes left ([`Field::MIN_BITS`] is an item's
//!   smallest encoding).
//! * **v1** — [`Field::Json`] is the `serde` codec of the JSON the
//!   field's carrier places (a body member, a whole body, a path segment
//!   or query value by its text) and reads back off the text. An absent
//!   option is `null` on the way out and a missing key or `null` on the
//!   way in.
//!
//! Every v1 form is the type's own `serde` description ([`Plain`]),
//! scalars included, or a `serde` codec's (a fingerprint's hex, a report
//! pair's object); the binary form of the hot types (tasks, outcomes,
//! result records and sets) is here, columnar where the type is a vector
//! of records. `extras`, catalog entries and metrics snapshots travel as
//! JSON text on v2 too.

use super::v2::{R, W};
use super::{CacheStatus, ExecOutcome, WireResultSet, WireValue};
use crate::catalog::{DbmsEntry, HostEntry, Visibility};
use crate::driver::{OperatorProfile, RunOutcome};
use crate::metrics::MetricsSnapshot;
use crate::pool::QueryId;
use crate::project::{ExperimentId, ProjectId, Role};
use crate::queue::{QueueSummary, Task, TaskId, TaskState};
use crate::results::{LoadAvg, ResultRecord};
use crate::user::{ContributorKey, UserId};
use serde::{Codec, Deserialize, Hex, Plain, Serialize};

type D<T> = Result<T, String>;

/// The two wire forms of a value of type `T`, implemented on `T` itself
/// except for `Option<Hex>`, the one second spelling.
pub(crate) trait Field<T = Self> {
    /// Bits of the smallest v2 encoding: what each item of a count must
    /// find left in the frame.
    const MIN_BITS: usize = 8;
    /// The v1 form: the codec that writes and reads the field's JSON.
    type Json: Codec<T>;
    fn write(v: &T, w: &mut W);
    fn read(r: &mut R<'_>) -> D<T>;
    /// The value a `text/plain` v1 body is: only text travels so.
    fn text(_body: &str) -> D<T> {
        Err("not a text payload".into())
    }
}

// ---------------------------------------------------------------- scalars

impl Field for u64 {
    const MIN_BITS: usize = 64;
    fn write(v: &u64, w: &mut W) {
        w.u64(*v)
    }
    fn read(r: &mut R<'_>) -> D<u64> {
        r.u64()
    }
    type Json = Plain;
}

/// Newtypes travel as what they wrap: the ids as their number, a
/// contributor key as its text.
macro_rules! newtype_fields {
    ($($id:ident($inner:ty)),*) => {$(
        impl Field for $id {
            const MIN_BITS: usize = <$inner>::MIN_BITS;
            fn write(v: &$id, w: &mut W) {
                <$inner>::write(&v.0, w)
            }
            fn read(r: &mut R<'_>) -> D<$id> {
                <$inner>::read(r).map($id)
            }
            type Json = Plain;
        }
    )*};
}

newtype_fields!(
    UserId(u64),
    ProjectId(u64),
    ExperimentId(u64),
    TaskId(u64),
    QueryId(u64)
);

impl Field for ContributorKey {
    const MIN_BITS: usize = 32;
    fn write(v: &ContributorKey, w: &mut W) {
        w.str(&v.0)
    }
    fn read(r: &mut R<'_>) -> D<ContributorKey> {
        r.str().map(|k| ContributorKey(k.into()))
    }
    type Json = Plain;
}

impl Field for bool {
    fn write(v: &bool, w: &mut W) {
        w.bool(*v)
    }
    fn read(r: &mut R<'_>) -> D<bool> {
        r.bool()
    }
    type Json = Plain;
}

impl Field for String {
    const MIN_BITS: usize = 32;
    fn write(v: &String, w: &mut W) {
        w.str(v)
    }
    fn read(r: &mut R<'_>) -> D<String> {
        r.str()
    }
    fn text(body: &str) -> D<String> {
        Ok(body.into())
    }
    type Json = Plain;
}

/// A presence byte, then the value.
impl<T: Field + Serialize + Deserialize> Field for Option<T> {
    fn write(v: &Option<T>, w: &mut W) {
        w.bool(v.is_some());
        if let Some(x) = v {
            T::write(x, w);
        }
    }
    fn read(r: &mut R<'_>) -> D<Option<T>> {
        Ok(if r.bool()? { Some(T::read(r)?) } else { None })
    }
    type Json = Plain;
}

/// `Execute.fingerprint`: on v1 the plan fingerprint in hex, as results
/// and execution outcomes print it; on v2 the plain `Option<u64>`.
impl Field<Option<u64>> for Option<Hex> {
    type Json = Self;
    fn write(v: &Option<u64>, w: &mut W) {
        Option::<u64>::write(v, w)
    }
    fn read(r: &mut R<'_>) -> D<Option<u64>> {
        Option::<u64>::read(r)
    }
}

/// A count, then the items.
impl<T: Field + Serialize + Deserialize> Field for Vec<T> {
    fn write(v: &Vec<T>, w: &mut W) {
        w.u32(v.len() as u32);
        for x in v {
            T::write(x, w);
        }
    }
    fn read(r: &mut R<'_>) -> D<Vec<T>> {
        let n = r.count(T::MIN_BITS)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::read(r)?);
        }
        Ok(out)
    }
    type Json = Plain;
}

impl Field for Visibility {
    fn write(v: &Visibility, w: &mut W) {
        w.u8(match v {
            Visibility::Public => 0,
            Visibility::Private => 1,
        })
    }
    fn read(r: &mut R<'_>) -> D<Visibility> {
        match r.u8()? {
            0 => Ok(Visibility::Public),
            1 => Ok(Visibility::Private),
            b => Err(format!("bad visibility byte {b}")),
        }
    }
    type Json = Plain;
}

impl Field for Role {
    fn write(v: &Role, w: &mut W) {
        w.u8(match v {
            Role::None => 0,
            Role::Reader => 1,
            Role::Contributor => 2,
            Role::Owner => 3,
        })
    }
    fn read(r: &mut R<'_>) -> D<Role> {
        match r.u8()? {
            0 => Ok(Role::None),
            1 => Ok(Role::Reader),
            2 => Ok(Role::Contributor),
            3 => Ok(Role::Owner),
            b => Err(format!("bad role byte {b}")),
        }
    }
    type Json = Plain;
}

/// Cold management DTOs: JSON text inside the frame on v2 too.
macro_rules! json_text_fields {
    ($($t:ident),*) => {$(
        impl Field for $t {
            fn write(v: &$t, w: &mut W) {
                w.json(v)
            }
            fn read(r: &mut R<'_>) -> D<$t> {
                r.json(stringify!($t))
            }
            type Json = Plain;
        }
    )*};
}

json_text_fields!(DbmsEntry, HostEntry, MetricsSnapshot);

impl Field for QueueSummary {
    fn write(q: &QueueSummary, w: &mut W) {
        for n in [q.queued, q.running, q.finished, q.failed, q.timed_out] {
            w.u64(n as u64);
        }
    }
    fn read(r: &mut R<'_>) -> D<QueueSummary> {
        Ok(QueueSummary {
            queued: r.u64()? as usize,
            running: r.u64()? as usize,
            finished: r.u64()? as usize,
            failed: r.u64()? as usize,
            timed_out: r.u64()? as usize,
        })
    }
    type Json = Plain;
}

// ------------------------------------------------------------- hot DTOs

impl Field for Task {
    fn write(t: &Task, w: &mut W) {
        w.u64(t.id.0);
        w.u64(t.project.0);
        w.u64(t.experiment.0);
        w.u64(t.query.0);
        w.str(&t.sql);
        w.str(&t.dbms_label);
        w.str(&t.host);
        match &t.state {
            TaskState::Queued => w.u8(0),
            // The claim nonce stays off the frame: the client that claimed
            // sent it and keeps it, and carrying it would change every
            // running task's frame for peers that predate it.
            TaskState::Running { contributor, .. } => {
                w.u8(1);
                w.str(&contributor.0);
            }
            TaskState::Done => w.u8(2),
            TaskState::Failed(e) => {
                w.u8(3);
                w.str(e);
            }
            TaskState::TimedOut => w.u8(4),
        }
    }
    fn read(r: &mut R<'_>) -> D<Task> {
        Ok(Task {
            id: TaskId(r.u64()?),
            project: ProjectId(r.u64()?),
            experiment: ExperimentId(r.u64()?),
            query: QueryId(r.u64()?),
            sql: r.str()?.into(),
            dbms_label: r.str()?.into(),
            host: r.str()?.into(),
            state: match r.u8()? {
                0 => TaskState::Queued,
                1 => TaskState::Running {
                    claim: None,
                    contributor: ContributorKey(r.str()?.into()),
                },
                2 => TaskState::Done,
                3 => TaskState::Failed(r.str()?),
                4 => TaskState::TimedOut,
                b => return Err(format!("bad task state byte {b}")),
            },
            // Hand-out time is server-side only, same as the JSON codec.
            started: None,
        })
    }
    type Json = Plain;
}

/// An operator profile: a count, then per operator its label and six
/// counters.
fn write_profile(w: &mut W, ops: &[OperatorProfile]) {
    w.u32(ops.len() as u32);
    for op in ops {
        w.str(&op.op);
        w.u64(op.rows_in);
        w.u64(op.rows_out);
        w.u64(op.batches);
        w.u64(op.nanos);
        w.u64(op.chunks_scanned);
        w.u64(op.chunks_skipped);
    }
}

fn read_profile(r: &mut R<'_>) -> D<Vec<OperatorProfile>> {
    let n = r.count(8 * (4 + 6 * 8))?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(OperatorProfile {
            op: r.str()?,
            rows_in: r.u64()?,
            rows_out: r.u64()?,
            batches: r.u64()?,
            nanos: r.u64()?,
            chunks_scanned: r.u64()?,
            chunks_skipped: r.u64()?,
        });
    }
    Ok(ops)
}

impl Field for RunOutcome {
    /// Times count, rows, error flag, two load triples, extras length,
    /// fingerprint and profile flags.
    const MIN_BITS: usize = 8 * (4 + 8 + 1 + 48 + 4 + 1 + 1);
    fn write(o: &RunOutcome, w: &mut W) {
        w.u32(o.times_ms.len() as u32);
        for t in &o.times_ms {
            w.f64(*t);
        }
        w.u64(o.rows as u64);
        Option::<String>::write(&o.error, w);
        for l in [&o.load_before, &o.load_after] {
            w.f64(l.one);
            w.f64(l.five);
            w.f64(l.fifteen);
        }
        w.json(&o.extras);
        Option::<u64>::write(&o.fingerprint, w);
        w.bool(o.profile.is_some());
        if let Some(ops) = &o.profile {
            write_profile(w, ops);
        }
    }
    fn read(r: &mut R<'_>) -> D<RunOutcome> {
        let n = r.count(64)?;
        let mut times_ms = Vec::with_capacity(n);
        for _ in 0..n {
            times_ms.push(r.f64()?);
        }
        let rows = r.u64()? as usize;
        let error = Option::<String>::read(r)?;
        let mut loads = [LoadAvg::default(); 2];
        for l in &mut loads {
            l.one = r.f64()?;
            l.five = r.f64()?;
            l.fifteen = r.f64()?;
        }
        Ok(RunOutcome {
            times_ms,
            rows,
            error,
            load_before: loads[0],
            load_after: loads[1],
            extras: r.json("extras")?,
            fingerprint: Option::<u64>::read(r)?,
            profile: if r.bool()? {
                Some(read_profile(r)?)
            } else {
                None
            },
        })
    }
    type Json = Plain;
}

/// Columnar `(task, outcome)` pairs: `[count][task ids][outcomes]` — the
/// fixed-width task-id vector packs densely up front, the variable-width
/// outcomes follow. The bulk frames of [`super::v2`] carry exactly this.
pub(crate) fn write_report_pairs(w: &mut W, pairs: &[(TaskId, RunOutcome)]) {
    w.u32(pairs.len() as u32);
    for (task, _) in pairs {
        w.u64(task.0);
    }
    for (_, outcome) in pairs {
        RunOutcome::write(outcome, w);
    }
}

pub(crate) fn read_report_pairs(r: &mut R<'_>) -> D<Vec<(TaskId, RunOutcome)>> {
    let n = r.count(64 + RunOutcome::MIN_BITS)?;
    let mut tasks = Vec::with_capacity(n);
    for _ in 0..n {
        tasks.push(TaskId(r.u64()?));
    }
    let mut pairs = Vec::with_capacity(n);
    for task in tasks {
        pairs.push((task, RunOutcome::read(r)?));
    }
    Ok(pairs)
}

serde::object! {
    /// One `ReportBatch` report on v1.
    pub(crate) ReportPair for (task, outcome): (TaskId, RunOutcome) {
        "outcome" => outcome,
        "task" => task,
    }
}

/// `ReportBatch.reports`: on v2 the expected total, then the pairs — the
/// single-frame form of the bulk summary frame (a server reads summary
/// frames itself, see [`super::v2::decode_request`]); on v1 an array of
/// `ReportPair`s.
impl Field for Vec<(TaskId, RunOutcome)> {
    type Json = Vec<ReportPair>;
    fn write(v: &Vec<(TaskId, RunOutcome)>, w: &mut W) {
        w.u32(v.len() as u32);
        write_report_pairs(w, v);
    }
    fn read(r: &mut R<'_>) -> D<Vec<(TaskId, RunOutcome)>> {
        let total = r.u32()? as usize;
        let pairs = read_report_pairs(r)?;
        if pairs.len() != total {
            return Err(format!("batch declared {total} reports, carried {}", pairs.len()));
        }
        Ok(pairs)
    }
}

/// Result records as per-field columns: all the `task` ids, then all the
/// `project` ids, … so the repetitive numeric fields pack densely and
/// the per-record framing overhead of JSON objects disappears.
impl Field for Vec<ResultRecord> {
    fn write(records: &Vec<ResultRecord>, w: &mut W) {
        let n = records.len();
        w.u32(n as u32);
        for rec in records {
            w.u64(rec.task);
        }
        for rec in records {
            w.u64(rec.project);
        }
        for rec in records {
            w.u64(rec.experiment);
        }
        for rec in records {
            w.u64(rec.query);
        }
        for rec in records {
            w.str(&rec.dbms_label);
        }
        for rec in records {
            w.str(&rec.host);
        }
        for rec in records {
            w.str(&rec.contributor);
        }
        // times_ms: per-record counts, then one flat f64 vector.
        for rec in records {
            w.u32(rec.times_ms.len() as u32);
        }
        for rec in records {
            for t in &rec.times_ms {
                w.f64(*t);
            }
        }
        for rec in records {
            w.u64(rec.rows as u64);
        }
        w.bitmap(n, |i| records[i].error.is_some());
        for rec in records {
            if let Some(e) = &rec.error {
                w.str(e);
            }
        }
        for rec in records {
            w.f64(rec.load_before.one);
            w.f64(rec.load_before.five);
            w.f64(rec.load_before.fifteen);
            w.f64(rec.load_after.one);
            w.f64(rec.load_after.five);
            w.f64(rec.load_after.fifteen);
        }
        for rec in records {
            // Stored as the JSON text this column carries.
            w.str(&rec.extras);
        }
        w.bitmap(n, |i| records[i].hidden);
        w.bitmap(n, |i| records[i].fingerprint.is_some());
        for rec in records {
            if let Some(fp) = rec.fingerprint {
                w.u64(fp);
            }
        }
        w.bitmap(n, |i| records[i].profile.is_some());
        for rec in records {
            if let Some(ops) = &rec.profile {
                write_profile(w, ops);
            }
        }
    }

    fn read(r: &mut R<'_>) -> D<Vec<ResultRecord>> {
        // Four ids, three string lengths, a times count, rows, two load
        // triples and an extras length per record.
        let n = r.count(8 * (4 * 8 + 3 * 4 + 4 + 8 + 48 + 4))?;
        let col_u64 = |r: &mut R<'_>| -> D<Vec<u64>> { (0..n).map(|_| r.u64()).collect() };
        let col_str = |r: &mut R<'_>| -> D<Vec<String>> { (0..n).map(|_| r.str()).collect() };
        let task = col_u64(r)?;
        let project = col_u64(r)?;
        let experiment = col_u64(r)?;
        let query = col_u64(r)?;
        let dbms_label = col_str(r)?;
        let host = col_str(r)?;
        let contributor = col_str(r)?;
        let times_len = (0..n).map(|_| r.count(64)).collect::<D<Vec<usize>>>()?;
        let mut times = Vec::with_capacity(n);
        for len in &times_len {
            times.push((0..*len).map(|_| r.f64()).collect::<D<Vec<f64>>>()?);
        }
        let rows = col_u64(r)?;
        let has_error = r.bitmap(n)?;
        let mut errors = Vec::with_capacity(n);
        for has in &has_error {
            errors.push(if *has { Some(r.str()?) } else { None });
        }
        let mut loads = Vec::with_capacity(n);
        for _ in 0..n {
            loads.push((
                LoadAvg { one: r.f64()?, five: r.f64()?, fifteen: r.f64()? },
                LoadAvg { one: r.f64()?, five: r.f64()?, fifteen: r.f64()? },
            ));
        }
        let mut extras: Vec<String> = Vec::with_capacity(n);
        for _ in 0..n {
            // Parsed to reject a malformed payload, kept as compact text.
            extras.push(r.json::<serde_json::Value>("extras")?.to_string());
        }
        let hidden = r.bitmap(n)?;
        let has_fp = r.bitmap(n)?;
        let mut fingerprints = Vec::with_capacity(n);
        for has in &has_fp {
            fingerprints.push(if *has { Some(r.u64()?) } else { None });
        }
        let has_profile = r.bitmap(n)?;
        let mut profiles = Vec::with_capacity(n);
        for has in &has_profile {
            profiles.push(if *has { Some(read_profile(r)?) } else { None });
        }

        let mut records = Vec::with_capacity(n);
        for i in 0..n {
            records.push(ResultRecord {
                task: task[i],
                project: project[i],
                experiment: experiment[i],
                query: query[i],
                dbms_label: dbms_label[i].as_str().into(),
                host: host[i].as_str().into(),
                contributor: contributor[i].clone(),
                times_ms: times[i].clone(),
                rows: rows[i] as usize,
                error: errors[i].clone(),
                load_before: loads[i].0,
                load_after: loads[i].1,
                extras: extras[i].clone(),
                hidden: hidden[i],
                fingerprint: fingerprints[i],
                profile: profiles[i].clone(),
            });
        }
        Ok(records)
    }

    type Json = Plain;
}

// -------------------------------------------------------- result sets

// Cell type tags for columnar vectors. 0 marks an all-null column (no
// values follow); 0xFF marks a mixed column (per-cell tags).
const CT_ALL_NULL: u8 = 0;
const CT_BOOL: u8 = 1;
const CT_INT: u8 = 2;
const CT_FLOAT: u8 = 3;
const CT_DECIMAL: u8 = 4;
const CT_STR: u8 = 5;
const CT_DATE: u8 = 6;
const CT_INTERVAL: u8 = 7;
const CT_MIXED: u8 = 0xFF;

fn cell_tag(v: &WireValue) -> u8 {
    match v {
        WireValue::Null => CT_ALL_NULL,
        WireValue::Bool(_) => CT_BOOL,
        WireValue::Int(_) => CT_INT,
        WireValue::Float(_) => CT_FLOAT,
        WireValue::Decimal { .. } => CT_DECIMAL,
        WireValue::Str(_) => CT_STR,
        WireValue::Date(_) => CT_DATE,
        WireValue::Interval { .. } => CT_INTERVAL,
    }
}

fn write_cell_payload(w: &mut W, v: &WireValue) {
    match v {
        WireValue::Null => {}
        WireValue::Bool(b) => w.bool(*b),
        WireValue::Int(i) => w.i64(*i),
        WireValue::Float(f) => w.f64(*f),
        WireValue::Decimal { raw, scale } => {
            w.i128(*raw);
            w.u8(*scale);
        }
        WireValue::Str(s) => w.str(s),
        WireValue::Date(d) => w.i32(*d),
        WireValue::Interval { months, days } => {
            w.i32(*months);
            w.i32(*days);
        }
    }
}

fn read_cell_payload(r: &mut R<'_>, tag: u8) -> D<WireValue> {
    Ok(match tag {
        CT_BOOL => WireValue::Bool(r.bool()?),
        CT_INT => WireValue::Int(r.i64()?),
        CT_FLOAT => WireValue::Float(r.f64()?),
        CT_DECIMAL => WireValue::Decimal {
            raw: r.i128()?,
            scale: r.u8()?,
        },
        CT_STR => WireValue::Str(r.str()?),
        CT_DATE => WireValue::Date(r.i32()?),
        CT_INTERVAL => WireValue::Interval {
            months: r.i32()?,
            days: r.i32()?,
        },
        other => return Err(format!("bad cell tag {other}")),
    })
}

/// One column: `[tag][null bitmap][packed values]`. `tag` is the uniform
/// cell type of the column (the common case — columns are typed), `0`
/// for an all-null column, or `0xFF` for a mixed column, which falls
/// back to a tag byte per non-null cell.
fn write_column(w: &mut W, col: &[WireValue]) {
    let mut uniform: Option<u8> = None;
    let mut mixed = false;
    for v in col {
        if matches!(v, WireValue::Null) {
            continue;
        }
        match uniform {
            None => uniform = Some(cell_tag(v)),
            Some(t) if t == cell_tag(v) => {}
            Some(_) => {
                mixed = true;
                break;
            }
        }
    }
    let tag = if mixed { CT_MIXED } else { uniform.unwrap_or(CT_ALL_NULL) };
    w.u8(tag);
    w.bitmap(col.len(), |i| !matches!(col[i], WireValue::Null));
    for v in col {
        if matches!(v, WireValue::Null) {
            continue;
        }
        if tag == CT_MIXED {
            w.u8(cell_tag(v));
        }
        write_cell_payload(w, v);
    }
}

fn read_column(r: &mut R<'_>, rows: usize) -> D<Vec<WireValue>> {
    let tag = r.u8()?;
    let present = r.bitmap(rows)?;
    let mut col = Vec::with_capacity(rows);
    for p in present {
        if !p {
            col.push(WireValue::Null);
            continue;
        }
        let cell_tag = if tag == CT_MIXED { r.u8()? } else { tag };
        col.push(read_cell_payload(r, cell_tag)?);
    }
    Ok(col)
}

/// `Reply::Execution`: the columnar result set, the plan fingerprint and
/// the plan-cache byte.
impl Field for ExecOutcome {
    fn write(out: &ExecOutcome, w: &mut W) {
        let rs = &out.result;
        w.u32(rs.columns.len() as u32);
        w.u32(rs.rows() as u32);
        for name in &rs.columns {
            w.str(name);
        }
        for col in &rs.data {
            write_column(w, col);
        }
        w.u64(out.fingerprint);
        w.u8(out.cache.as_u8());
    }
    fn read(r: &mut R<'_>) -> D<ExecOutcome> {
        // A column is at least a name length and a tag; a row at least
        // one bitmap bit per column.
        let ncols = r.count(8 * (4 + 1))?;
        let nrows = r.count(ncols)?;
        let columns = (0..ncols).map(|_| r.str()).collect::<D<Vec<String>>>()?;
        let data = (0..ncols)
            .map(|_| read_column(r, nrows))
            .collect::<D<Vec<_>>>()?;
        Ok(ExecOutcome {
            result: WireResultSet { columns, data },
            fingerprint: r.u64()?,
            cache: CacheStatus::from_u8(r.u8()?)?,
        })
    }
    type Json = Plain;
}
