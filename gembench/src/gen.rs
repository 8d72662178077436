//! Seeded inputs: the Employee/Department data and each client's
//! operation stream. Everything here is a pure function of the seed, so
//! the same seed gives byte-identical OPAL text.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream derived from `seed` and a stream number.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf-distributed ranks over `0..n` (exponent `s`), by inverse CDF.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Number of departments in the `Dept` global.
pub const DEPTS: usize = 20;
/// Salaries are drawn from `SALARY_MIN + SALARY_STEP * k`, `k < SALARY_SLOTS`.
pub const SALARY_MIN: i64 = 20_000;
pub const SALARY_STEP: i64 = 10;
pub const SALARY_SLOTS: u64 = 4_000;
/// Width of the analytics salary range scan.
pub const RANGE_WIDTH: i64 = 1_000;
/// Number of employees in an Id-range query.
pub const ID_RANGE: u64 = 8;

fn salary(rng: &mut Rng) -> i64 {
    SALARY_MIN + SALARY_STEP * rng.below(SALARY_SLOTS) as i64
}

/// The database contents at the end of set-up.
#[derive(Clone, Debug, PartialEq)]
pub struct Data {
    /// `salaries[id]` for employee `id` (Ids are `0..n`).
    pub salaries: Vec<i64>,
    /// `depts[id]`: the employee's department, `0..DEPTS`.
    pub depts: Vec<usize>,
    /// Department budgets, from 580 000: a tenth of a budget is near the
    /// top salary, so the §5.1 join keeps a few percent of the employees.
    pub budgets: Vec<i64>,
}

impl Data {
    /// Salaries, departments and budgets are fixed multisets dealt out in
    /// a seeded order: every seed sees the same distributions (each salary
    /// slot used equally often, equal departments), so runs with different
    /// seeds do the same amount of work.
    pub fn generate(seed: u64, employees: usize) -> Data {
        let mut rng = Rng::derive(seed, 0xDA7A);
        let mut budgets: Vec<i64> = (0..DEPTS as i64).map(|k| 580_000 + 1_000 * k).collect();
        let mut salaries: Vec<i64> = (0..employees as u64)
            .map(|i| SALARY_MIN + SALARY_STEP * (i % SALARY_SLOTS) as i64)
            .collect();
        let mut depts: Vec<usize> = (0..employees).map(|i| i % DEPTS).collect();
        rng.shuffle(&mut budgets);
        rng.shuffle(&mut salaries);
        rng.shuffle(&mut depts);
        Data { salaries, depts, budgets }
    }

    pub fn employees(&self) -> usize {
        self.salaries.len()
    }
}

/// What an operation costs the user: the latency metric family it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Read,
    Write,
    Query,
    History,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Read, Class::Write, Class::Query, Class::History];

    pub fn name(self) -> &'static str {
        match self {
            Class::Read => "read",
            Class::Write => "write",
            Class::Query => "query",
            Class::History => "history",
        }
    }
}

/// One client transaction. Department indexes are 0-based here and
/// 1-based in the OPAL text.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `e ! Dept ! Budget` for the employee found through the `#Id` directory.
    PointRead {
        id: u64,
    },
    /// `e ! Salary` through the `#Id` directory.
    SalaryRead {
        id: u64,
    },
    /// Payroll of `ID_RANGE` consecutive Ids: an `#Id` directory range probe.
    IdRange {
        lo: u64,
    },
    /// `e ! Salary @ t0`.
    History {
        id: u64,
    },
    Raise {
        id: u64,
    },
    Hire {
        id: u64,
        salary: i64,
        dept: usize,
    },
    Transfer {
        from: usize,
        to: usize,
        amount: i64,
    },
    SetSalary {
        id: u64,
        salary: i64,
    },
    /// Count of salaries in `[lo, lo + RANGE_WIDTH)`.
    RangeScan {
        lo: i64,
    },
    /// Count of salaries equal to `salary` (the `#Salary` directory).
    EqSelect {
        salary: i64,
    },
    /// The §5.1 Employee × Department join: employees earning more than a
    /// tenth of their department's budget.
    Join,
    /// Sum of the salaries above `lo`.
    Aggregate {
        lo: i64,
    },
    /// `RangeScan` under `System timeDial: t0`.
    DialScan {
        lo: i64,
    },
}

/// The employee found through the `#Id` directory.
fn by_id(id: u64) -> String {
    format!("((Staff select: [:e | e Id = {id}]) detect: [:e | true])")
}

fn range_count(lo: i64) -> String {
    format!("(Staff select: [:e | (e Salary >= {lo}) & (e Salary < {})]) size", lo + RANGE_WIDTH)
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::PointRead { .. } | Op::SalaryRead { .. } => Class::Read,
            Op::IdRange { .. }
            | Op::RangeScan { .. }
            | Op::EqSelect { .. }
            | Op::Join
            | Op::Aggregate { .. } => Class::Query,
            Op::History { .. } | Op::DialScan { .. } => Class::History,
            Op::Raise { .. } | Op::Hire { .. } | Op::Transfer { .. } | Op::SetSalary { .. } => {
                Class::Write
            }
        }
    }

    /// True when the operation changes the database.
    pub fn writes(&self) -> bool {
        self.class() == Class::Write
    }

    /// The single OPAL doIt this transaction runs; `t0` is the time-dial
    /// target of history reads.
    pub fn opal(&self, t0: i64) -> String {
        match *self {
            Op::PointRead { id } => format!("{} ! Dept ! Budget", by_id(id)),
            Op::SalaryRead { id } => format!("{} ! Salary", by_id(id)),
            Op::IdRange { lo } => format!(
                "(Staff select: [:e | (e Id >= {lo}) & (e Id < {})]) \
                 inject: 0 into: [:a :e | a + (e at: #Salary)]",
                lo + ID_RANGE
            ),
            Op::History { id } => format!("{} ! Salary @ {t0}", by_id(id)),
            Op::Raise { id } => format!(
                "| e | e := {}. e at: #Salary put: (e at: #Salary) + 1. e at: #Salary",
                by_id(id)
            ),
            Op::Hire { id, salary, dept } => format!(
                "| e | e := Dictionary new. e at: #Id put: {id}. e at: #Name put: 'E{id}'. \
                 e at: #Salary put: {salary}. e at: #Dept put: (Dept at: {}). Staff add: e. {id}",
                dept + 1
            ),
            Op::Transfer { from, to, amount } => format!(
                "| a b | a := Dept at: {}. b := Dept at: {}. \
                 a at: #Budget put: (a at: #Budget) - {amount}. \
                 b at: #Budget put: (b at: #Budget) + {amount}. {amount}",
                from + 1,
                to + 1
            ),
            Op::SetSalary { id, salary } => {
                format!("| e | e := {}. e at: #Salary put: {salary}. {salary}", by_id(id))
            }
            Op::RangeScan { lo } => range_count(lo),
            Op::EqSelect { salary } => format!("(Staff select: [:e | e Salary = {salary}]) size"),
            Op::Join => "Dept inject: 0 into: [:n :d | | hits | \
                 hits := Staff select: [:e | e Salary > (0.10 * (d at: #Budget))]. \
                 n + (hits inject: 0 into: [:m :e | \
                     ((e at: #Dept) == d) ifTrue: [m + 1] ifFalse: [m]])]"
                .to_string(),
            Op::Aggregate { lo } => format!(
                "(Staff select: [:e | e Salary > {lo}]) inject: 0 into: [:a :e | a + (e at: #Salary)]"
            ),
            Op::DialScan { lo } => format!(
                "| n | System timeDial: {t0}. n := {}. System timeDialNow. n",
                range_count(lo)
            ),
        }
    }

    /// The same read at the present time, for history operations: the
    /// traced run times both to isolate the cost of reading the past.
    pub fn present_twin(&self) -> Option<Op> {
        match *self {
            Op::History { id } => Some(Op::SalaryRead { id }),
            Op::DialScan { lo } => Some(Op::RangeScan { lo }),
            _ => None,
        }
    }
}

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Oltp,
    Analytics,
    Cold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Oltp, Workload::Analytics, Workload::Cold];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Oltp => "oltp",
            Workload::Analytics => "analytics",
            Workload::Cold => "cold",
        }
    }
}

/// First Id a client hires into; each client owns a disjoint range.
pub fn hire_base(client: usize) -> u64 {
    1_000_000 * (client as u64 + 1)
}

/// One client's endless, seeded operation stream.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    employees: u64,
    zipf: Zipf,
    next_hire: u64,
    client: usize,
    /// Operations dealt so far.
    dealt: usize,
    /// Analytics queries dealt so far: the next select shape.
    shape: usize,
}

/// Each workload deals its operation classes from a fixed 20-slot deck, so
/// every run has the same mix in the same order and only keys and values
/// come from the seed. `R` read, `Q` select, `H` history read, `W` salary
/// raise (`oltp`) or update, `N` hire, `T` budget transfer.
pub fn deck(workload: Workload) -> &'static [u8; 20] {
    match workload {
        // 30% reads, 10% Id-range selects, 15% history reads, 25% raises,
        // 10% hires, 10% transfers; Zipf-skewed keys.
        Workload::Oltp => b"RWRHNRWQRHTRWQNHRWTW",
        // 65% selects over four shapes, 5% point reads, 15% time-dialed
        // range scans, 15% salary updates; uniform keys.
        Workload::Analytics => b"QQWQHQQRQWQHQQWQHQQQ",
        // 60% salary reads, 5% Id-range selects, 5% history reads, 30%
        // salary updates; uniform keys.
        Workload::Cold => b"RWRRWRQRWRRWHRWRRWRR",
    }
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, client: usize, employees: usize) -> Stream {
        Stream {
            workload,
            rng: Rng::derive(seed, 0x5EED + client as u64),
            employees: employees as u64,
            zipf: Zipf::new(employees, 0.99),
            next_hire: hire_base(client),
            client,
            dealt: 0,
            shape: 0,
        }
    }

    /// A Zipf-skewed employee Id; the hot ranks are scattered over the
    /// Id space so they do not share directory neighbourhoods.
    fn hot_id(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        (rank * 2_654_435_761) % self.employees
    }

    /// The employee an operation targets: Zipf-skewed on `oltp`, uniform
    /// elsewhere.
    fn key(&mut self) -> u64 {
        if self.workload == Workload::Oltp {
            self.hot_id()
        } else {
            self.rng.below(self.employees)
        }
    }

    fn salary_lo(&mut self, span: i64) -> i64 {
        SALARY_MIN
            + SALARY_STEP
                * self.rng.below(((SALARY_STEP * SALARY_SLOTS as i64 - span) / SALARY_STEP) as u64)
                    as i64
    }

    fn id_lo(&mut self) -> u64 {
        self.rng.below(self.employees - ID_RANGE + 1)
    }

    /// The deck slot of the `dealt`-th operation. Client `c` shifts its
    /// position by `c` more slots every deck cycle: each cycle is still the
    /// whole deck, and clients running in lock-step meet each other in
    /// every pairing of slots, in turn, so reads meet hires and transfers
    /// in their real proportion.
    fn slot(&self) -> u8 {
        let deck = deck(self.workload);
        let shift = self.client * (self.dealt / deck.len());
        deck[(self.dealt + shift) % deck.len()]
    }

    pub fn next_op(&mut self) -> Op {
        let slot = self.slot();
        self.dealt += 1;
        let w = self.workload;
        match slot {
            b'R' if w == Workload::Cold => Op::SalaryRead { id: self.key() },
            b'R' => Op::PointRead { id: self.key() },
            b'W' if w == Workload::Oltp => Op::Raise { id: self.key() },
            b'W' => {
                let id = self.key();
                Op::SetSalary { id, salary: salary(&mut self.rng) }
            }
            b'N' => {
                let id = self.next_hire;
                self.next_hire += 1;
                Op::Hire {
                    id,
                    salary: salary(&mut self.rng),
                    dept: self.rng.below(DEPTS as u64) as usize,
                }
            }
            b'T' => {
                let from = self.zipf_dept();
                let mut to = self.zipf_dept();
                if to == from {
                    to = (from + 1) % DEPTS;
                }
                Op::Transfer { from, to, amount: 1 + self.rng.below(1_000) as i64 }
            }
            b'H' if w == Workload::Analytics => Op::DialScan { lo: self.salary_lo(RANGE_WIDTH) },
            b'H' => Op::History { id: self.key() },
            b'Q' if w == Workload::Analytics => {
                self.shape += 1;
                match self.shape % 4 {
                    0 => Op::RangeScan { lo: self.salary_lo(RANGE_WIDTH) },
                    1 => Op::EqSelect { salary: salary(&mut self.rng) },
                    2 => Op::Join,
                    _ => Op::Aggregate {
                        lo: SALARY_MIN + 36_000 + SALARY_STEP * self.rng.below(400) as i64,
                    },
                }
            }
            b'Q' => Op::IdRange { lo: self.id_lo() },
            _ => unreachable!("deck slot {slot}"),
        }
    }

    /// Departments are hot in Zipf order too: the transfer hot spot.
    fn zipf_dept(&mut self) -> usize {
        (self.zipf.sample(&mut self.rng) % DEPTS + self.rng.below(2) as usize) % DEPTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_text(w: Workload, seed: u64, client: usize) -> String {
        let mut s = Stream::new(w, seed, client, 4_000);
        (0..2_000).map(|_| s.next_op().opal(1234) + "\n").collect()
    }

    #[test]
    fn same_seed_gives_identical_stream() {
        for w in Workload::ALL {
            assert_eq!(stream_text(w, 7, 0).as_bytes(), stream_text(w, 7, 0).as_bytes());
        }
        assert_eq!(Data::generate(7, 500), Data::generate(7, 500));
    }

    #[test]
    fn different_seed_or_client_gives_different_stream() {
        for w in Workload::ALL {
            assert_ne!(stream_text(w, 7, 0), stream_text(w, 8, 0));
            assert_ne!(stream_text(w, 7, 0), stream_text(w, 7, 1));
        }
        assert_ne!(Data::generate(7, 500), Data::generate(8, 500));
    }

    #[test]
    fn every_workload_produces_every_class() {
        for w in Workload::ALL {
            let mut s = Stream::new(w, 3, 0, 4_000);
            let mut seen = std::collections::BTreeSet::new();
            for _ in 0..1_000 {
                seen.insert(s.next_op().class());
            }
            assert_eq!(seen.len(), 4, "{w:?} covers read, write, query and history");
        }
    }

    #[test]
    fn decks_deal_the_documented_shares() {
        let shares = |w| {
            let mut n = std::collections::BTreeMap::new();
            for &c in deck(w) {
                *n.entry(c as char).or_insert(0) += 5;
            }
            n.into_iter().collect::<Vec<(char, u32)>>()
        };
        let oltp = [('H', 15), ('N', 10), ('Q', 10), ('R', 30), ('T', 10), ('W', 25)];
        assert_eq!(shares(Workload::Oltp), oltp);
        assert_eq!(shares(Workload::Analytics), [('H', 15), ('Q', 65), ('R', 5), ('W', 15)]);
        assert_eq!(shares(Workload::Cold), [('H', 5), ('Q', 5), ('R', 60), ('W', 30)]);
    }

    #[test]
    fn lockstep_clients_meet_in_every_pairing() {
        let slots = |client| {
            let mut s = Stream::new(Workload::Oltp, 3, client, 4_000);
            (0..400)
                .map(|_| {
                    let slot = s.slot();
                    s.next_op();
                    slot
                })
                .collect::<Vec<u8>>()
        };
        let (a, b) = (slots(0), slots(1));
        for (x, y) in a.chunks(20).zip(b.chunks(20)) {
            let (mut x, mut y) = (x.to_vec(), y.to_vec());
            x.sort_unstable();
            y.sort_unstable();
            assert_eq!(x, y, "every cycle deals the whole deck");
        }
        let pairs: std::collections::BTreeSet<(u8, u8)> = a.into_iter().zip(b).collect();
        let kinds: std::collections::BTreeSet<u8> = deck(Workload::Oltp).iter().copied().collect();
        assert_eq!(pairs.len(), kinds.len() * kinds.len(), "every pair of classes meets");
    }

    #[test]
    fn keys_stay_in_range() {
        let mut s = Stream::new(Workload::Oltp, 11, 1, 100);
        for _ in 0..5_000 {
            match s.next_op() {
                Op::PointRead { id } | Op::Raise { id } | Op::History { id } => assert!(id < 100),
                Op::IdRange { lo } => assert!(lo + ID_RANGE <= 100),
                Op::Hire { id, .. } => assert!(id >= hire_base(1)),
                Op::Transfer { from, to, .. } => assert!(from != to && from < DEPTS && to < DEPTS),
                op => panic!("unexpected oltp op {op:?}"),
            }
        }
    }
}
