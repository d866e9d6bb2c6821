//! Deterministic random numbers and the distributions used by the workload
//! models.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA'14): tiny, fast,
//! passes BigCrush when used as a 64-bit stream, and — crucially for a
//! reproduction artifact — trivial to re-implement bit-exactly anywhere.
//! Every simulated component receives its own [`Rng::fork`]ed stream so that
//! adding a component never perturbs the draws seen by another.

use core::time::Duration;

use crate::time::secs_f64;

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seedable, splittable pseudo-random generator (SplitMix64).
///
/// # Examples
///
/// ```
/// use odr_simtime::Rng;
///
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // Forked streams are independent of the parent's subsequent draws.
/// let mut fork = a.fork(7);
/// let _ = fork.next_u64();
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Derives an independent child stream.
    ///
    /// The child seed mixes the parent seed with `stream` through the same
    /// avalanche function as the generator itself, so children with distinct
    /// `stream` ids are decorrelated from each other and from the parent.
    /// Forking does not advance the parent.
    #[must_use]
    pub fn fork(&self, stream: u64) -> Rng {
        Rng::new(mix(self.state ^ mix(stream.wrapping_mul(GOLDEN_GAMMA))))
    }

    /// Returns the next 64 uniformly distributed bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// Returns a uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform integer from `[0, n)` using Lemire's unbiased
    /// multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire 2019: rejection happens with probability < 2^-64 * n, i.e.
        // essentially never for the small `n` used here.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws from a standard normal by the 256-layer ziggurat (Marsaglia &
    /// Tsang, J. Stat. Softw. 5(8), 2000).
    ///
    /// One `next_u64` picks the layer (low 8 bits) and a signed uniform
    /// (the top 53 bits: sign and 52 bits of magnitude, never zero). About
    /// 99 % of draws land inside their layer's rectangle and return after
    /// one multiply and one compare; the wedge test costs one `exp`, and
    /// the base layer's tail beyond [`ZIG_R`] takes Marsaglia's two-log
    /// method.
    #[inline]
    pub(crate) fn standard_normal(&mut self) -> f64 {
        loop {
            let bits = self.next_u64();
            let i = (bits & 0xff) as usize;
            // `i + 2 <= 257`, so both windows always exist.
            let (Some(&[x_i, x_next]), Some(&[f_i, f_next])) =
                (ZIG_X.get(i..i + 2), ZIG_F.get(i..i + 2))
            else {
                continue;
            };
            let magnitude = ((bits >> 11) & ((1 << 52) - 1)) as f64 + 0.5;
            let x = magnitude * (1.0 / (1u64 << 52) as f64) * x_i;
            // `x > 0`, so the top bit's sign is set without branching on a
            // coin flip the predictor cannot learn.
            let signed = |x: f64| f64::from_bits(x.to_bits() | (bits & (1 << 63)));
            if x < x_next {
                return signed(x);
            }
            if i == 0 {
                return signed(self.normal_tail());
            }
            if f_i + (f_next - f_i) * self.next_f64() < (-0.5 * x * x).exp() {
                return signed(x);
            }
        }
    }

    /// Draws `|z| > ZIG_R` for the ziggurat's base layer: `x` and `y` are
    /// exponential, and `R + x` is accepted when `2y >= x^2`.
    #[cold]
    fn normal_tail(&mut self) -> f64 {
        loop {
            let x = self.exponential(ZIG_R);
            let y = self.exponential(1.0);
            if y + y >= x * x {
                return ZIG_R + x;
            }
        }
    }

    /// Draws from `N(mean, std^2)`.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.standard_normal()
    }

    /// Draws from a log-normal with the given parameters of the *underlying*
    /// normal (i.e. `exp(N(mu, sigma^2))`).
    #[inline]
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        (mu + sigma * self.standard_normal()).exp()
    }

    /// Draws from an exponential distribution with the given rate (events
    /// per unit).
    ///
    /// Workload models validate their rates at construction, so a
    /// non-positive `rate` is a logic bug: debug builds assert, release
    /// builds return `0.0` (an immediate event) rather than unwinding
    /// the DES hot loop.
    #[inline]
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive");
        if !(rate > 0.0) {
            return 0.0;
        }
        let mut u = self.next_f64();
        while u <= f64::MIN_POSITIVE {
            u = self.next_f64();
        }
        -u.ln() / rate
    }

    /// Draws from a Pareto distribution with scale `xm` and shape `alpha`.
    ///
    /// Used for the heavy spike tail of frame processing times.
    ///
    /// As with [`Rng::exponential`], non-positive parameters are a logic
    /// bug caught by debug builds; release builds return `xm` (the
    /// distribution's lower bound) rather than unwinding.
    #[inline]
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        debug_assert!(
            xm > 0.0 && alpha > 0.0,
            "pareto parameters must be positive"
        );
        if !(xm > 0.0 && alpha > 0.0) {
            return xm;
        }
        let mut u = self.next_f64();
        while u <= f64::MIN_POSITIVE {
            u = self.next_f64();
        }
        xm / u.powf(1.0 / alpha)
    }

    /// Draws a duration whose length in seconds is log-normally distributed
    /// around `median` with multiplicative spread `sigma` (of the underlying
    /// normal).
    pub fn lognormal_duration(&mut self, median: Duration, sigma: f64) -> Duration {
        let secs = self.lognormal(median.as_secs_f64().max(1e-12).ln(), sigma);
        secs_f64(secs)
    }
}

/// Where the ziggurat's base layer hands over to its tail (Marsaglia &
/// Tsang's 256-layer `r`, 3.6541528853610088, as the nearest `f64`).
const ZIG_R: f64 = 3.654152885361009;

/// Layer edges, widest first. With `f(x) = exp(-x^2/2)` and every layer's
/// area `V = R f(R) + integral of f over (R, inf)`: `ZIG_X[0] = V / f(R)`
/// is the base layer's equal-area width, `ZIG_X[1] = R`, each next edge
/// solves `x_{i+1} = sqrt(-2 ln(V / x_i + f(x_i)))` in `f64` from the one
/// before it, and `ZIG_X[256] = 0`. Literal, so no lazy init sits on the
/// sampler's path; `tests::tables_match_their_recurrence` recomputes them.
#[rustfmt::skip]
const ZIG_X: [f64; 257] = [
    3.9107579595249145, 3.654152885361009, 3.449278298561431, 3.3202447338398255,
    3.224575052047802, 3.147889289518001, 3.0835261320021434, 3.027837791769594,
    2.9786032798818436, 2.934366867208888, 2.8941210536134125, 2.857138730873225,
    2.8228773968264433, 2.7909211740019275, 2.7609440052799865, 2.7326853590440114,
    2.705933656123062, 2.6805146432857447, 2.656283037576743, 2.6331163936315822,
    2.610910518488823, 2.589575986708286, 2.5690354526818435, 2.549221550324783,
    2.5300752321598536, 2.5115444416266937, 2.493583041271046, 2.476149939670522,
    2.459208374334704, 2.442725318200363, 2.4266709849371457, 2.4110184139011186,
    2.3957431197819266, 2.380822795172085, 2.3662370567172903, 2.351967227379144,
    2.337996148796528, 2.324308018871132, 2.3108882506013715, 2.297723348902863,
    2.2848008027244915, 2.2721089902283813, 2.259637095173787, 2.247375032947389,
    2.235313384929921, 2.22344334009251, 2.2117566428841604, 2.200245546611276,
    2.1889027716263603, 2.1777214677402923, 2.1666951803543077, 2.1558178198767366,
    2.145083634047888, 2.134487182846016, 2.1240233156895227, 2.1136871506866526,
    2.1034740557148766, 2.0933796311387916, 2.083399693998304, 2.0735302635187427,
    2.063767547811732, 2.054107931650652, 2.0445479652175313, 2.035084353729619,
    2.025713947863854, 2.016433734906204, 2.0072408305605287, 1.9981324713584196,
    1.989106007617438, 1.9801588969004766, 1.9712886979336592, 1.962493064944363,
    1.9537697423846467, 1.9451165600086784, 1.9365314282756947, 1.9280123340526658,
    1.9195573365931882, 1.9111645637712535, 1.9028322085504297, 1.8945585256707052,
    1.8863418285367832, 1.8781804862929963, 1.8700729210712672, 1.8620176053996746,
    1.8540130597602023, 1.8460578502851857, 1.8381505865828067, 1.830289919682757,
    1.8224745400938858, 1.8147031759662826, 1.8069745913508208, 1.79928758454972,
    1.7916409865521625, 1.7840336595494415, 1.7764644955245228, 1.7689324149112684,
    1.7614363653189102, 1.7539753203176716, 1.7465482782817225, 1.7391542612859117,
    1.7317923140529632, 1.7244615029480448, 1.7171609150178229, 1.7098896570713016,
    1.702646854799923, 1.6954316519345614, 1.688243209437195, 1.6810807047251735,
    1.6739433309261247, 1.666830296161665, 1.659740822858182, 1.6526741470830553,
    1.6456295179047817, 1.638606196775547, 1.6316034569348727, 1.624620582833034,
    1.617656869573015, 1.6107116223698297, 1.6037841560260941, 1.5968737944227878,
    1.5899798700241905, 1.583101723396029, 1.576238702735906, 1.5693901634151233,
    1.5625554675310445, 1.5557339834691761, 1.5489250854741732, 1.5421281532290017,
    1.5353425714415139, 1.528567729437712, 1.5218030207609978, 1.5150478427767144,
    1.5083015962813113, 1.5015636851154637, 1.4948335157804935, 1.4881104970574472,
    1.481394039628187, 1.4746835556978553, 1.4679784586180793, 1.4612781625102753,
    1.45458208188841, 1.4478896312805758, 1.4412002248487237, 1.4345132760058918,
    1.4278281970302555, 1.4211443986753085, 1.4144612897754707, 1.4077782768463982,
    1.4010947636792503, 1.3944101509281404, 1.3877238356899755, 1.3810352110758548,
    1.3743436657731656, 1.3676485835974754, 1.3609493430332822, 1.354245316762634,
    1.3475358711805863, 1.340820365896403, 1.334098153219359, 1.3273685776279247,
    1.3206309752210552, 1.3138846731502194, 1.30712898903073, 1.3003632303308361,
    1.2935866937369467, 1.2867986644932425, 1.279998415713817, 1.2731852076653554,
    1.2663582870182284, 1.2595168860637131, 1.2526602218948961, 1.2457874955486261,
    1.2388978911056863, 1.231990574746135, 1.2250646937565297, 1.2181193754854807,
    1.2111537262436982, 1.2041668301443804, 1.1971577478794404, 1.190125515426691,
    1.1830691426826856, 1.1759876120154509, 1.1688798767308322, 1.1617448594456106,
    1.1545814503599268, 1.1473885054208481, 1.1401648443681505, 1.132909248652533,
    1.1256204592155323, 1.1182971741193437, 1.1109380460135743, 1.1035416794246382,
    1.09610662785202, 1.0886313906539782, 1.0811144097034022, 1.0735540657924345,
    1.0659486747621207, 1.0582964833306734, 1.0505956645909282, 1.0428443131441474,
    1.0350404398334394, 1.0271819660356445, 1.019266717465483, 1.0112924174399947,
    1.003256679544672, 0.9951569996350901, 0.9869907470990615, 0.9787551552942237,
    0.9704473110642236, 0.9620641432230397, 0.9536024098810852, 0.9450586844681645,
    0.9364293402865742, 0.9277105334019992, 0.9188981836495896, 0.9099879534967176,
    0.9009752244612208, 0.8918550707329405, 0.8826222295851646, 0.8732710680888597,
    0.8637955455533078, 0.8541891710081628, 0.844444954909153, 0.834555354086381,
    0.8245122087522911, 0.8143066701352142, 0.8039291169899702, 0.7933690588406223,
    0.782615023307232, 0.7716544242245669, 0.7604734064301069, 0.7490566620178141,
    0.7373872114342944, 0.7254461409099985, 0.7132122851909748, 0.7006618411068138,
    0.6877678927957872, 0.6744998228372925, 0.6608225742444183, 0.6466957148949922,
    0.6320722363860595, 0.6168969900077498, 0.601104617755991, 0.5846167661063777,
    0.567338257053817, 0.5491517023271634, 0.5299097206615562, 0.5094233296020898,
    0.487443966139234, 0.46363433679087995, 0.43751840220786914, 0.4083891346119882,
    0.37512133287837723, 0.3357375192144212, 0.28617459179206706, 0.21524189598487314,
    0.0,
];
/// `ZIG_F[i] = f(ZIG_X[i]) = exp(-ZIG_X[i]^2 / 2)`, rising to `ZIG_F[256] = 1`.
#[rustfmt::skip]
const ZIG_F: [f64; 257] = [
    0.00047746776460939005, 0.001260285930498598, 0.002609072746102164, 0.0040379725933630305,
    0.0055224032992509916, 0.007050875471373222, 0.008616582769398726, 0.010214971439701459,
    0.011842757857907879, 0.013497450601739867, 0.01517708830793531, 0.016880083152543142,
    0.018605121275724622, 0.02035109623004451, 0.02211706270730885, 0.02390220330579588,
    0.02570580400854891, 0.027527235669603113, 0.02936593975813336, 0.0312214171919203,
    0.03309321945857858, 0.034980941461716125, 0.036884215688567305, 0.03880270740452615,
    0.04073611065594099, 0.04268414491647452, 0.04464655225129456, 0.046623094901930486,
    0.04861355321586865, 0.05061772386094789, 0.05263541827679231, 0.054666461324889046,
    0.056710690106203006, 0.05876795292093387, 0.06083810834953996, 0.06292102443775822,
    0.06501657797124295, 0.06712465382778857, 0.06924514439700682, 0.07137794905889047,
    0.07352297371398138, 0.07568013035892718, 0.07784933670209612, 0.08003051581466307,
    0.0822235958132029, 0.08442850957035347, 0.08664519445055807, 0.08887359206827589,
    0.09111364806637376, 0.09336531191269101, 0.095628536713009, 0.09790327903886246,
    0.10018949876881002, 0.10248715894193525, 0.10479622562248707, 0.1071166677746838,
    0.1094484571468118, 0.11179156816383809, 0.11414597782783849, 0.11651166562561087,
    0.11888861344291006, 0.1212768054847903, 0.12367622820159657, 0.1260868702201859,
    0.12850872227999957, 0.13094177717364436, 0.13338602969166916, 0.13584147657125376,
    0.13830811644855073, 0.1407859498144447, 0.14327497897351346, 0.14577520800599403,
    0.14828664273257455, 0.15080929068184568, 0.15334316106026286, 0.1558882647244792,
    0.15844461415592428, 0.161012223437511, 0.16359110823236558, 0.1661812857644819,
    0.16878277480121137, 0.17139559563750584, 0.1740197700818386, 0.17665532144373486,
    0.17930227452284758, 0.18196065559952251, 0.18463049242679927, 0.1873118142238003,
    0.19000465167046499, 0.19270903690358918, 0.1954250035141343, 0.19815258654577517,
    0.2008918224946566, 0.2036427493103349, 0.2064054063978808, 0.20917983462112508,
    0.21196607630703018, 0.21476417525117358, 0.21757417672433113, 0.220396127480152,
    0.22323007576391748, 0.22607607132238028, 0.22893416541468034, 0.23180441082433872,
    0.23468686187233, 0.2375815744312381, 0.2404886059405006, 0.2434080154227503,
    0.24633986350126383, 0.24928421241852852, 0.2522411260559422, 0.25521066995466196,
    0.25819291133761924, 0.2611879191327212, 0.2641957639972612, 0.26721651834356147,
    0.27025025636587546, 0.27329705406857707, 0.2763569892956683, 0.27943014176163794,
    0.2825165930837076, 0.28561642681550176, 0.2887297284821829, 0.2918565856170952,
    0.2949970877999618, 0.2981513266966855, 0.30131939610080305, 0.30450139197665,
    0.30769741250429206, 0.3109075581262865, 0.3141319315963372, 0.3173706380299136,
    0.32062378495690536, 0.3238914823763911, 0.3271738428136014, 0.3304709813791636,
    0.33378301583071845, 0.33711006663700605, 0.34045225704452187, 0.3438097131468507,
    0.34718256395679364, 0.3505709414814061, 0.3539749808000768, 0.3573948201457805,
    0.36083060098964803, 0.36428246812900406, 0.3677505697790326, 0.37123505766823955,
    0.37473608713789125, 0.3782538172456193, 0.38178841087339377, 0.38534003484007745,
    0.38890886001878894, 0.39249506145931584, 0.39609881851583273, 0.39972031498019756,
    0.40335973922111484, 0.40701728432947376, 0.41069314827018866, 0.4143875340408916,
    0.4181006498378486, 0.42183270922949634, 0.4255839313380224, 0.4293545410294419,
    0.43314476911265276, 0.436954852547986, 0.4407850346658044, 0.4446355653957398,
    0.4485067015072034, 0.45239870686184896, 0.45631185267871677, 0.4602464178128432,
    0.46420268904817463, 0.4681809614056939, 0.4721815384677304, 0.47620473271950614,
    0.48025086590904703, 0.4843202694266836, 0.4884132847054583, 0.4925302636438688,
    0.4966715690524901, 0.5008375751261491, 0.5050286679434685, 0.5092452459957482,
    0.5134877207473272, 0.5177565172297565, 0.522052074672322, 0.5263748471716846,
    0.5307253044036623, 0.535103932380458, 0.5395112342569526, 0.5439477311900267,
    0.5484139632552664, 0.552910490425833, 0.5574378936187666, 0.5619967758145251,
    0.566587763256165, 0.5712115067352538, 0.5758686829723543, 0.5805599961007915,
    0.5852861792633718, 0.5900479963328262, 0.5948462437679877, 0.5996817526191256,
    0.604555390697468, 0.6094680649257737, 0.6144207238889141, 0.6194143606058345,
    0.6244500155470267, 0.6295287799248369, 0.6346517992876238, 0.6398202774530568,
    0.6450354808208226, 0.650298743110817, 0.6556114705796976, 0.6609751477766634,
    0.6663913439087504, 0.6718617198970824, 0.6773880362187737, 0.6829721616449951,
    0.688616083004672, 0.6943219161261169, 0.7000919181365118, 0.7059285013327545,
    0.7118342488782486, 0.7178119326307222, 0.7238645334686304, 0.7299952645614765,
    0.736207598126863, 0.7425052963401514, 0.7488924472191572, 0.7553735065070964,
    0.7619533468367955, 0.7686373157984865, 0.7754313049811874, 0.7823418326548027,
    0.7893761435660249, 0.7965423304229593, 0.8038494831709647, 0.8113078743126567,
    0.8189291916037029, 0.8267268339462219, 0.834716292986884, 0.8429156531122047,
    0.8513462584586785, 0.8600336211963321, 0.8690086880368576, 0.878309655808918,
    0.8879846607558339, 0.8980959218983441, 0.9087264400521315, 0.9199915050393478,
    0.9320600759592313, 0.9451989534423006, 0.9598790918001079, 0.977101701267673,
    1.0,
];

/// The SplitMix64 finalizer (a strong 64-bit avalanche function).
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `V`, the area of every ziggurat layer (see [`ZIG_X`]).
    const ZIG_V: f64 = 0.004928673233974655;

    /// The Box-Muller transform the ziggurat replaced, kept as the
    /// reference it is tested against.
    struct BoxMuller {
        rng: Rng,
        spare: Option<f64>,
    }

    impl BoxMuller {
        fn next(&mut self) -> f64 {
            if let Some(z) = self.spare.take() {
                return z;
            }
            let mut u1 = self.rng.next_f64();
            while u1 <= f64::MIN_POSITIVE {
                u1 = self.rng.next_f64();
            }
            let u2 = self.rng.next_f64();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = core::f64::consts::TAU * u2;
            self.spare = Some(r * theta.sin());
            r * theta.cos()
        }
    }

    fn ziggurat_draws(seed: u64, n: usize) -> Vec<f64> {
        let mut r = Rng::new(seed);
        (0..n).map(|_| r.standard_normal()).collect()
    }

    /// `count` of `n` Bernoulli(`p`) trials lies within five standard
    /// deviations of `n p` (two-sided probability of a miss ~6e-7).
    fn assert_binomial(what: &str, count: usize, n: usize, p: f64) {
        let (n, count) = (n as f64, count as f64);
        let sd = (n * p * (1.0 - p)).sqrt();
        assert!(
            (count - n * p).abs() <= 5.0 * sd,
            "{what}: {count} of {n}, expected {:.1} +- {:.1}",
            n * p,
            5.0 * sd
        );
    }

    #[test]
    fn ziggurat_matches_box_muller_by_kolmogorov_smirnov() {
        let n = 1_000_000;
        let mut zig = ziggurat_draws(31, n);
        let mut bm = BoxMuller {
            rng: Rng::new(37),
            spare: None,
        };
        let mut reference: Vec<f64> = (0..n).map(|_| bm.next()).collect();
        zig.sort_by(f64::total_cmp);
        reference.sort_by(f64::total_cmp);
        // Two-sample statistic: the largest gap between the empirical CDFs.
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < n && j < n {
            let x = zig[i].min(reference[j]);
            while i < n && zig[i] <= x {
                i += 1;
            }
            while j < n && reference[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 - j as f64).abs() / n as f64);
        }
        // The 99.9 % critical value c(0.001) sqrt(2 / n), c = sqrt(ln(2000) / 2).
        let critical = (2000f64.ln() / 2.0).sqrt() * (2.0 / n as f64).sqrt();
        assert!(d < critical, "KS statistic {d} >= critical {critical}");
    }

    #[test]
    fn ziggurat_tails_and_symmetry_are_binomial() {
        let n = 1_000_000;
        let z = ziggurat_draws(41, n);
        let beyond = |t: f64| z.iter().filter(|x| x.abs() > t).count();
        // erfc(t / sqrt(2)), from a 40-digit evaluation.
        assert_binomial("|z| > 3", beyond(3.0), n, 0.002_699_796_063_260_189);
        assert_binomial("|z| > R", beyond(ZIG_R), n, 0.000_258_032_487_653_900_7);
        let positive = z.iter().filter(|&&x| x > 0.0).count();
        assert_binomial("z > 0", positive, n, 0.5);
        let upper_tail = z.iter().filter(|&&x| x > ZIG_R).count();
        assert_binomial("z > R among |z| > R", upper_tail, beyond(ZIG_R), 0.5);
        assert!(z.iter().all(|x| x.is_finite() && *x != 0.0));
    }

    #[test]
    fn tail_draws_follow_the_conditional_normal() {
        // P(Z > R + t | Z > R) = Q(R + t) / Q(R), from a 30-digit evaluation.
        let n = 100_000;
        let mut r = Rng::new(43);
        let tail: Vec<f64> = (0..n).map(|_| r.normal_tail()).collect();
        assert!(tail.iter().all(|&x| x > ZIG_R));
        for (t, p) in [
            (0.25, 0.366_449_964_259_147),
            (0.5, 0.126_532_451_202_125_6),
        ] {
            let above = tail.iter().filter(|&&x| x > ZIG_R + t).count();
            assert_binomial("tail excess", above, n, p);
        }
    }

    /// Distance in units in the last place between two positive floats.
    fn ulps(a: f64, b: f64) -> u64 {
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn tables_match_their_recurrence() {
        let f = |x: f64| (-0.5 * x * x).exp();
        assert_eq!(ZIG_X[1], ZIG_R);
        assert!(ulps(ZIG_X[0], ZIG_V / f(ZIG_R)) <= 1, "x[0] = {}", ZIG_X[0]);
        for i in 1..255 {
            let next = (-2.0 * (ZIG_V / ZIG_X[i] + f(ZIG_X[i])).ln()).sqrt();
            assert!(
                ulps(ZIG_X[i + 1], next) <= 1,
                "x[{}] = {} vs {next}",
                i + 1,
                ZIG_X[i + 1]
            );
        }
        assert_eq!((ZIG_X[256], ZIG_F[256]), (0.0, 1.0));
        for i in 0..256 {
            assert!(ulps(ZIG_F[i], f(ZIG_X[i])) <= 1, "f[{i}] = {}", ZIG_F[i]);
        }
    }

    #[test]
    fn every_layer_has_area_v() {
        let f = |x: f64| (-0.5 * x * x).exp();
        // V = R f(R) + the tail integral, by Simpson's rule over (R, R + 12).
        let (panels, h) = (1 << 16, 12.0 / f64::from(1 << 16));
        let tail: f64 = (0..=panels)
            .map(|k| {
                let w = if k == 0 || k == panels {
                    1.0
                } else if k % 2 == 1 {
                    4.0
                } else {
                    2.0
                };
                w * f(ZIG_R + k as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        let close = |area: f64| ((area - ZIG_V) / ZIG_V).abs() < 1e-12;
        assert!(
            close(ZIG_R * f(ZIG_R) + tail),
            "base area {}",
            ZIG_R * f(ZIG_R) + tail
        );
        assert!(
            close(ZIG_X[0] * ZIG_F[1]),
            "base rectangle {}",
            ZIG_X[0] * ZIG_F[1]
        );
        for i in 1..256 {
            let area = ZIG_X[i] * (ZIG_F[i + 1] - ZIG_F[i]);
            assert!(close(area), "layer {i} area {area}");
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for SplitMix64 seeded with 1234567,
        // cross-checked against the public-domain C implementation.
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn forked_streams_differ() {
        let parent = Rng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fork_does_not_advance_parent() {
        let mut a = Rng::new(5);
        let mut b = Rng::new(5);
        let _ = a.fork(10);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = Rng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut r = Rng::new(11);
        let n = 200_000;
        let (mut sum, mut sq) = (0.0, 0.0);
        for _ in 0..n {
            let x = r.normal(5.0, 2.0);
            sum += x;
            sq += x * x;
        }
        let mean = sum / n as f64;
        let var = sq / n as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let mut r = Rng::new(13);
        let mut xs: Vec<f64> = (0..50_001).map(|_| r.lognormal(2.0f64.ln(), 0.5)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 2.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut r = Rng::new(17);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn pareto_never_below_scale() {
        let mut r = Rng::new(19);
        for _ in 0..10_000 {
            assert!(r.pareto(3.0, 2.5) >= 3.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(23);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.1));
    }

    #[test]
    fn lognormal_duration_positive() {
        let mut r = Rng::new(29);
        for _ in 0..1000 {
            let d = r.lognormal_duration(Duration::from_millis(10), 0.4);
            assert!(d > Duration::ZERO);
            assert!(d < Duration::from_secs(1));
        }
    }
}
