// The history behind `wal_parent.log` and `snapshot_parent.jsonl`:
// every WAL op, every checkpoint line kind, and the values an encoder
// gets wrong first. `include!`d by `wal_codec_props.rs` — and, once, by a
// generator built against the parent commit (7faa73a), which appended
// these records with its value-tree encoder, recovered the directory and
// wrote the snapshot and the CSVs committed beside this file. It names
// only items both sides have.

/// Quotes, backslashes, newline, tab, carriage return, control
/// characters and non-ASCII in one text.
const HOSTILE: &str = "a \"quoted\" \\ back\\\\slash\nline\ttab\rcr \u{1}\u{1f}\u{7f} é ✓ 漢 \u{1F600}";

/// SQL that looks like the log's own structure.
const TRICKY_SQL: &str = "select '\"tasks\":[' as a, ']' as b, '}' as c, '{\"op\":\"x\"}' from t where s = '\\\"'";

pub fn key() -> ContributorKey {
    ContributorKey("ck_feed".into())
}

pub const BASE: u64 = 1 << 32;

fn task(n: u64, query: u64, sql: &str, dbms: &str) -> Task {
    Task {
        id: TaskId(BASE + n),
        project: ProjectId(1),
        experiment: ExperimentId(0),
        query: QueryId(query),
        sql: sql.into(),
        dbms_label: dbms.into(),
        host: "bench-server".into(),
        state: TaskState::Queued,
        started: None,
    }
}

fn result(n: u64, query: u64, dbms: &str, times_ms: Vec<f64>, error: Option<&str>) -> ResultRecord {
    ResultRecord {
        task: BASE + n,
        project: 1,
        experiment: 0,
        query,
        dbms_label: dbms.into(),
        host: "bench-server".into(),
        contributor: key().0.to_string(),
        times_ms,
        rows: 25,
        error: error.map(str::to_string),
        load_before: LoadAvg { one: 0.5, five: 1.0, fifteen: 2.25 },
        load_after: LoadAvg { one: 3.0, five: 1e-7, fifteen: 123456789.125 },
        extras: "null".into(),
        hidden: false,
        fingerprint: None,
        profile: None,
    }
}

pub fn history() -> Vec<WalRecord> {
    let grammar = sqalpel_grammar::Grammar::parse(sqalpel_grammar::FIG1_GRAMMAR)
        .unwrap()
        .to_string();
    let entry = |id: u64, sql: &str, origin: Origin, fingerprint: Option<u64>| PoolEntry {
        id: QueryId(id),
        sql: sql.into(),
        template: (id % 2) as usize,
        choice: [
            ("l_column".to_string(), vec![0, 2]),
            ("l_tables".to_string(), vec![0]),
            ("empty".to_string(), vec![]),
        ]
        .into_iter()
        .collect(),
        origin,
        step: id as usize,
        fingerprint,
    };
    let sqls = ["select count(*) from nation", TRICKY_SQL, "select n_name from nation", HOSTILE];
    let dbms = ["rowstore-2.0", "colstore-5.1"];

    let mut ok = result(0, 0, dbms[0], vec![1.0, 2.5, 1e15, 0.001, 12345678.0], None);
    ok.extras = r#"{"cache":"warm","nested":{"a":[1,2.5,null,true],"s":"x\"y"},"rows":25}"#.into();
    ok.fingerprint = Some(0xfeed_face_cafe_beef);
    ok.profile = Some(vec![
        OperatorProfile {
            op: "scan nation".into(),
            rows_in: 25,
            rows_out: 25,
            batches: 1,
            nanos: u64::MAX - 7,
            chunks_scanned: 3,
            chunks_skipped: 1,
        },
        OperatorProfile {
            op: "select \"x\"".into(),
            rows_in: 25,
            rows_out: 1,
            batches: 1,
            nanos: 0,
            chunks_scanned: 0,
            chunks_skipped: 0,
        },
    ]);
    let failed = result(1, 0, dbms[1], vec![], Some(HOSTILE));
    let mut odd_extras = result(2, 1, dbms[0], vec![4.0], None);
    odd_extras.extras = "not json: {\"half".into();
    odd_extras.profile = Some(Vec::new());
    odd_extras.fingerprint = Some(1);
    let mut batch_failed = result(3, 1, dbms[1], vec![0.25], Some("timeout"));
    batch_failed.extras = "\"a string\"".into();

    vec![
        WalRecord::UserRegistered { id: UserId(1), nickname: "mlk".into(), email: "mlk@cwi.nl".into() },
        WalRecord::UserRegistered {
            id: UserId(2),
            nickname: "pk \"✓\" é".into(),
            email: "pk+\\tag@cwi.nl".into(),
        },
        WalRecord::KeyIssued { user: UserId(2), key: key(), counter: 0xf000_0000_0000_0001 },
        WalRecord::DbmsAdded {
            entry: DbmsEntry {
                name: "odd\"db".into(),
                version: "0.1\\beta".into(),
                vendor: HOSTILE.into(),
                settings: [
                    ("buffer \"pool\"".to_string(), "8\tGB".to_string()),
                    ("compression".to_string(), "lz4\n".to_string()),
                ]
                .into_iter()
                .collect(),
                visibility: Visibility::Private,
            },
        },
        WalRecord::HostAdded {
            entry: HostEntry {
                name: "xeon-e5".into(),
                cpu: "Intel Xeon E5-4657L \"v2\"".into(),
                cores: 48,
                ram_gb: 1024,
                os: "Fedora\\26".into(),
                visibility: Visibility::Public,
            },
        },
        WalRecord::ProjectCreated {
            id: ProjectId(1),
            owner: UserId(1),
            title: "the \"nation\" study".into(),
            synopsis: HOSTILE.into(),
            visibility: Visibility::Public,
        },
        WalRecord::Invited { project: ProjectId(1), user: UserId(2) },
        WalRecord::TargetsSet {
            project: ProjectId(1),
            dbms_labels: dbms.iter().map(|s| s.to_string()).collect(),
            hosts: vec!["bench-server".into()],
        },
        WalRecord::CommentAdded { project: ProjectId(1), author: UserId(2), text: HOSTILE.into() },
        WalRecord::ExperimentAdded {
            project: ProjectId(1),
            id: ExperimentId(0),
            title: "nation \\ walk".into(),
            baseline_sql: "select count(*) from nation where n_name = 'BRAZIL'".into(),
            grammar: grammar.clone(),
            template_cap: 1000,
            pool_cap: 100,
            dialect: None,
        },
        WalRecord::ExperimentAdded {
            project: ProjectId(1),
            id: ExperimentId(1),
            title: "with a dialect".into(),
            baseline_sql: "select 1".into(),
            grammar,
            template_cap: 10,
            pool_cap: 5,
            dialect: Some("monet\"db".into()),
        },
        WalRecord::PoolExtended {
            project: ProjectId(1),
            experiment: ExperimentId(0),
            entries: vec![
                entry(0, sqls[0], Origin::Baseline, Some(u64::MAX)),
                entry(1, sqls[1], Origin::Random, None),
                entry(2, sqls[2], Origin::Morph { strategy: Strategy::Alter, parent: QueryId(0) }, Some(7)),
                entry(3, sqls[3], Origin::Morph { strategy: Strategy::Prune, parent: QueryId(2) }, None),
            ],
        },
        WalRecord::TasksEnqueued {
            project: ProjectId(1),
            tasks: (0..8)
                .map(|n| task(n, n / 2, sqls[(n / 2) as usize], dbms[(n % 2) as usize]))
                .collect(),
        },
        WalRecord::TaskClaimed { task: TaskId(BASE), key: key(), claim: None },
        WalRecord::ReportAccepted { task: TaskId(BASE), key: key(), error: None, record: ok },
        WalRecord::TaskClaimed { task: TaskId(BASE + 1), key: key(), claim: None },
        WalRecord::ReportAccepted {
            task: TaskId(BASE + 1),
            key: key(),
            error: Some(HOSTILE.into()),
            record: failed,
        },
        WalRecord::TaskClaimed { task: TaskId(BASE + 2), key: key(), claim: None },
        WalRecord::TaskClaimed { task: TaskId(BASE + 3), key: key(), claim: None },
        WalRecord::ReportBatchAccepted {
            key: key(),
            items: vec![
                (TaskId(BASE + 2), None, odd_extras),
                (TaskId(BASE + 3), Some("timeout".into()), batch_failed),
            ],
        },
        WalRecord::TaskRequeued { task: TaskId(BASE + 3) },
        WalRecord::TaskClaimed { task: TaskId(BASE + 4), key: key(), claim: None },
        WalRecord::TasksReaped { project: ProjectId(1), tasks: vec![TaskId(BASE + 4)] },
        WalRecord::TaskClaimed { task: TaskId(BASE + 5), key: key(), claim: None },
        WalRecord::ResultHidden { project: ProjectId(1), index: 1, hidden: true },
        WalRecord::ProjectCreated {
            id: ProjectId(2),
            owner: UserId(2),
            title: "withdrawn".into(),
            synopsis: "".into(),
            visibility: Visibility::Private,
        },
        WalRecord::TakenDown { project: ProjectId(2) },
    ]
}
