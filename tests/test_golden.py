"""Golden outputs: byte-exact jobs.csv and report.csv for every heuristic.

Each case runs ``marsched simulate`` through ``cli.main`` on a seeded
synthetic trace written as SWF, and compares the sha256 of both output files
with the digests pinned below. Heuristic runs are pure-Python float
arithmetic, so the digests do not depend on the machine or the BLAS build.
A speed change to the simulator must leave every digest as it is; a change
that means to alter the schedule re-records them and says why.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from helpers import sha256
from marsched import cli, neural
from marsched.agent import Hyperparameters, MarsAgent, random_baseline
from marsched.heuristics import HEURISTIC_KINDS
from marsched.neural import softmax
from marsched.workload import (SyntheticConfig, WorkloadTrace,
                               generate_synthetic, write_swf)

# name -> generator settings; total_procs is 128 for both
TRACES = {
    # all 300 jobs arrive within about 150 s: a deep ready queue throughout
    "burst": SyntheticConfig(job_count=300, arrival_rate=2.0, seed=101),
    # load below 1: the queue is short, but long enough for the policies
    # to order it differently
    "underload": SyntheticConfig(job_count=200, arrival_rate=0.015, seed=102),
}

# (trace, policy, backfill) -> (sha256 of jobs.csv, sha256 of report.csv)
GOLDEN = {
    ('burst', 'f1', 'off'):
        ('310639024e8214f680db9732051e337b5be2fe087245c8fc96387432dac1f3be',
         '4c962149fa011e9a47a135a6067da7f0bf5f3de7d32410af2de68a68b7e33c81'),
    ('burst', 'f1', 'on'):
        ('ecc8a199a93b4f67ddc80d62ca7826fe3f9cff8fadcdadf207714e5673ff9b12',
         '4846bc2d82952b0078e98497600969840f4609c043984ec2e5921d4b7a988aa3'),
    ('burst', 'f2', 'off'):
        ('ece9e002f30ef2495a10c613ee517e350ef5f0ff103dc7a6872d3e96c4464262',
         'b0fdf273b10caab2cb314526f6987146d03d0352e247014367f578299ffb5379'),
    ('burst', 'f2', 'on'):
        ('94c43baf3ecc56a0309ce1550a1d79b46cdd457177b06f489801b259c57ef61f',
         '60530a51413743dbe5f918490d5da0c70ba6402e54af5211c358f9f697691b77'),
    ('burst', 'f3', 'off'):
        ('323a2ebab15bf5381df1be54b6fc438e74ef20c71491074b2beb3a15d2abcb7d',
         '870f7b2c8b97f89bb36bd8145486df8952fef33bc9347b38569958b9eb0d3ac7'),
    ('burst', 'f3', 'on'):
        ('affc50e2b82f3264337d29aa3e0b73b14f329cb31f33ab05d1e660a7b6a5edef',
         'd96854f1ecd5fa20987f0e57ef56525f2f46bf5dcdb5d63fd41c3be73673e049'),
    ('burst', 'f4', 'off'):
        ('c8573fa31003ef0ecad842c27ab2c88cd822fb1093dc7e535fb8efac04236fcf',
         '1322b7bd5cbbc11ef9205cba8cc1a4b92bb2cc8cf69edf1c251421a4c2c07967'),
    ('burst', 'f4', 'on'):
        ('f66290d01b5142b5ec07766c8f9d1295eb04005449e413ec3c896738a61ea3d3',
         'c5c07c28e3f19e965017abc86fcbe823d2ce1de038879c31b7a189518cb02da7'),
    ('burst', 'fcfs', 'off'):
        ('ddc58152b3e09ddb61d2cd274295e5ccaa0d4805a4290f4128021c402bd865a3',
         '80bdcc8f04be6bf7166011851ff7e71096b9d14469f7850d4521766a6e45b2bf'),
    ('burst', 'fcfs', 'on'):
        ('35fc8e0a1ecd0debe7e574e9fb6314c2799952c0b5216ad2245995d1a3f3031f',
         '6fec254760ef282abfdc3759f3e6329d4d1483d0eb489cbc81f00e47d6d8604d'),
    ('burst', 'sjf', 'off'):
        ('4e23cfeb2acef0ddeaa43dfd314844faf1f295ad1a9716394fff84e05cb5830c',
         '89510ac96cd3e362b576acb9c930f7438ebf2fc614f6d626433a786991d06c2e'),
    ('burst', 'sjf', 'on'):
        ('81b5b7332ff9781afed7909d48208fdc92cac9ef4af7c1f08f7376aa344b3c7d',
         'd9db6010a091a8438fb2ef88a0869f65464e49c3d74b43831b924ae029519b90'),
    ('burst', 'unicef', 'off'):
        ('1c9e947c4eb2877a69c025b7c051ad7b59cb96983992d878113cdc3858aab2a8',
         'ff1aa1393001c540a7976dc550733209ae851804a2b81360ef22d1f41762ec9a'),
    ('burst', 'unicef', 'on'):
        ('872a436aba6bbfa83072adce97551160233da5271ab235debece4cf11b3f8616',
         'de6a978db4cb0cad0976ac70433eef4e4fd48a572ac2a67b6186d70c6da0027e'),
    ('burst', 'wfp3', 'off'):
        ('e2319f89bab2cd88585bbf37b468a962247c65413e2c532f4d27ae29aa9a83f2',
         'd933024cbc14db0c5698e05f789606003b63cc947acbdca62ab076f20c674363'),
    ('burst', 'wfp3', 'on'):
        ('d0740834a4a032606ed921e74a210f81fe8cc59714d96403d06fe3f943762bb7',
         '4e9381b60036548451440f7d22ac950a4a78fd8fd5677f15763f5672e19673e1'),
    ('underload', 'f1', 'off'):
        ('5d49db22d08a12c2d9b77e6312309ac2a270990c941e8c7f57fe67e4e4d0ed93',
         '6c5654832cb1538ad573607a99ad179394ec6df4aa8759519ed30ef84a333f8a'),
    ('underload', 'f1', 'on'):
        ('3c25d997090e34311985b29e5cfb56c639e8cb117032a23139e96c7c85338466',
         'ef00a77c5c3955155c3996d6afa8eb48e00013f81648401b88600dce43994b54'),
    ('underload', 'f2', 'off'):
        ('7b73c99c90993327fd031b77174e02553d8e9bd72ed0a9c9ab315685070c9c07',
         '3af1523e7d282e238d1b18d45e221eab2b63e1377d2ebc0a1775214a41809917'),
    ('underload', 'f2', 'on'):
        ('9c9b5956cf1bba6edffab03c12435cec6a499dd91814b04947c5f7e7f982160c',
         '79eef4928e20f3cc14ff084d20325c34dafa9138d9e0d7b0651468f131d5e1f6'),
    ('underload', 'f3', 'off'):
        ('243808a95e3de054b027b991dc0341ef4dd1fad06cb8a30749683fb7b0bda39c',
         'b9f39ff46a0e2a65a31360b6ba6504de33966a15889733149eaba2bdfa2d5dea'),
    ('underload', 'f3', 'on'):
        ('ad458cc184a32110687597d63efc524b67bbcd96a171c413d65871681d6b1e0c',
         '9e8d87bcafc9510d503cdfc7f4435a994350951123763f5cd15538b85775a33a'),
    ('underload', 'f4', 'off'):
        ('a8914198bc8e9b9afdfed0c47fb45e970059ac10bc62177c44234099e9fb2e85',
         'b6a967584dcb84c8b7ce44ab76de80357106214d076d3b09a85913dbbba9ed8a'),
    ('underload', 'f4', 'on'):
        ('f2ee21b60bed9ad249c53ee18eb24a2d401a820026541d4a4ec4eefee2c55880',
         'dec84e0b273b723e2478c91832bff96e9a9277f32958d3bdc3771247643b5044'),
    ('underload', 'fcfs', 'off'):
        ('b91884a1d3b6b2115e096429ada8728c1425c13293e17ac21587f85778eb60f8',
         'efe5938d41051bdcb61bbe4895973c65c2aad4befb6a998beadf76d7d8e0145f'),
    ('underload', 'fcfs', 'on'):
        ('167c6c44107a56bf4e5f8a70a68adfc5ce4efb023759d2d98001e8771605632d',
         'ed431825cd505a9f86806a86139f204589e4482c004d16e11c186270f984517b'),
    ('underload', 'sjf', 'off'):
        ('5c599bb2850c38955d2f64b70da63125a2c25eb2470bc488cb03a7967ba8fb3e',
         'ae27c7654cef31481882137dfe6f857f31253ece1520a15f2f2118d28f77c7c0'),
    ('underload', 'sjf', 'on'):
        ('7009ecd767da73738e8d5788daf5849338bc185bcc167a0f145daa94c42f08f8',
         '6fa2893bed4150f31d405c10911a33be2a9f889fd9f0db2136c640c3f9234eb2'),
    ('underload', 'unicef', 'off'):
        ('ff71915aa64d97109876d97cd2f4c1c44d4f26bbf3e9badebb61724eb9d978d4',
         '3a42e83a64fd29f2c5325ab8cfa46d8a64df4a57a0bec71043b59a098cec0d1b'),
    ('underload', 'unicef', 'on'):
        ('dbde0144cb05442669f5acb7bbb70d9ae59569710ef55c0810f605b58f569cca',
         'ad51c739f6181aebece05cdc304c011e454b300cd9084a99b1306e6fd002cb59'),
    ('underload', 'wfp3', 'off'):
        ('4f708636dd534236168af11816c26659320a17ef25f5cd066f34708413e38d09',
         '90aa65accc6945e5ad049953fa0ee3ef9b8a587a68449ff3945992e811ece4e4'),
    ('underload', 'wfp3', 'on'):
        ('690bbba9e6aded405540a49398e5701c61fcba4fc9c3ecbf539a288bf68b754d',
         'a9fdb435bfdd32676ba6adefec7b1e651d6f77835d506abe31f4d244600c6757'),
}


def overrun_trace() -> WorkloadTrace:
    """A burst trace in which every third job's estimate is 40% of its run
    time (rounded up), so those jobs run past their estimates and the EASY
    reservation projects them to release at the current clock. The other
    jobs keep the generator's 1-5x overestimates, which no synthetic
    setting can push below 1."""
    trace = generate_synthetic(SyntheticConfig(job_count=300,
                                               arrival_rate=2.0, seed=103))
    trace.jobs = [dataclasses.replace(j, requested_time=float(
                      max(1, -(-int(j.run_time) * 2 // 5))))
                  if j.id % 3 == 0 else j for j in trace.jobs]
    return trace


# (policy, backfill) -> digests on overrun_trace(); recorded, like GOLDEN, on
# the simulator that rebuilt the reservation from the running set each call
GOLDEN_OVERRUN = {
    ('fcfs', 'on'):
        ('4d1622476b3e83d94415a0a6d39ff671d529a7976b78c4482ca6fbd3768a22b8',
         '31458f2c68f99fe27d326ef6e3df4e49ed385fd309f75caf7dd1b19d80ac657e'),
    ('fcfs', 'off'):
        ('204fd877c385d3c9f877072786dcdd53814ed823cf840520495560fb97413426',
         '2266dae6a04ee9386e6a73984fb14c58dcdfacd34b9cedda3b362ad0cb014465'),
    ('sjf', 'on'):
        ('5dbc9a846a84254b9aaa02dc2652253b9febfdd2be7722dff64812fa776068fb',
         'ecd5342ab140147dedfba14fec81018b37e8c6b6893ce6648b175885658e2143'),
    ('sjf', 'off'):
        ('491130a87844955894ab5647a5374df4f2c417a18c107b808c982a90348e4581',
         '10648bcf6933e177066ab920baf051aaf5cbacbf73a8e4bc46a0ed429cc9f643'),
    ('wfp3', 'on'):
        ('0cd6faf22ce43c65eccdd38863672bdc1df79f8841afaa3c1afc3ec5b9595f38',
         'b76b8c9cb6ae90395209c6698be4c730b7939c5d1b72db88eb74047374dde13b'),
    ('wfp3', 'off'):
        ('2c3c1bd83f2f1f71ac0538de357c0505fada558377546cf58fba89b1b6ba4a52',
         '732ec07063be5d3be38a99f1af22a92d9e9300f5b78c97a293cac4b8c8a847e3'),
    ('unicef', 'on'):
        ('20e8d99d097b7c7b746edfb5fe5f73823d37d32f64884faf8d7c2d91d7d2a1ad',
         '8b51ced8ddbd78795bdc076d4d01857eda71b1539139a7db03b85d0cf124be08'),
    ('unicef', 'off'):
        ('c6bc8d64863814e496e1a18952468c8ed06d349eea5df69b92ac7dde7e4022b8',
         'f80399fbb1eb58a22195d81a6763c637eeb1f87149347827c8d42a7253300456'),
    ('f1', 'on'):
        ('0754e89b8490d8e5cbc43dc6cb5505cbe7fd3908774992e471f04c548fe88446',
         'c790c4d3f73e2b733f068f498b19d502a813511e5ebc1c5df2948349acb48466'),
    ('f1', 'off'):
        ('b249e3eac9561e68270359d4ed2096006bcd0a146efaba8aabf3e388c2b0d62b',
         'a8eb6492142727a3765b38700ffd4875739f3c8df943b0924e819f31c49aab49'),
    ('f2', 'on'):
        ('4946958de9df5f88e41b93365268348c4901bf06d70c41e86df3d966d8ae2fee',
         '870ab43eb6e51cb08a9d73b7415532f4aa58b85eb3ec740e5157369fe55830c0'),
    ('f2', 'off'):
        ('58d9535b1dae0911a5f1fd60fcb89726f91da8734aefe20bf134561f8c63b277',
         '4c830e425f44b3eefcf0edaacf87e2994b605a56b0687e070ca398fa8e8adb7c'),
    ('f3', 'on'):
        ('171e365c3504a1faaa2e34b968f48d9e7e63714ef84534b05442847d55736bc8',
         'c9e3f3575b57e399982ad3b795eda42e36e313ea26f7b128f6563cca96866514'),
    ('f3', 'off'):
        ('d1dff2b52121a87126b4ac597a835a58effa5a2f94ebfb1b1c73c9799e4aa5ee',
         '65a7de692d563e127582516b3c50c1d20cbbef9a186aa744c5b9ced06cdeeed4'),
    ('f4', 'on'):
        ('47cd68b20e6d982d4b0cb745347904abd370045cf7e7fddbe0db7d797b938c09',
         '4f1851f2c5dd933792b823d8421d32189076e36af011488690cc34d45c69d514'),
    ('f4', 'off'):
        ('9d9c5d1e2dea277f1ff2db57a76f71e89a0d869976b5e723432cc480cfab84a1',
         'efb31bde8617401ff434ac97e98631354113498cef5b900fcc49772a793becb8'),
}


@pytest.fixture(scope="module")
def swf_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, cfg in TRACES.items():
        paths[name] = root / f"{name}.swf"
        write_swf(paths[name], generate_synthetic(cfg))
    paths["overrun"] = root / "overrun.swf"
    write_swf(paths["overrun"], overrun_trace())
    (root / "empty.ini").write_text("")
    return root, paths


@pytest.mark.parametrize("backfill", ["on", "off"])
@pytest.mark.parametrize("policy", [k.value for k in HEURISTIC_KINDS])
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_golden_outputs(swf_paths, tmp_path, trace, policy, backfill):
    root, paths = swf_paths
    code = cli.main(["simulate", "--trace", str(paths[trace]),
                     "--policy", policy, "--backfill", backfill,
                     "--seed", "0", "--config", str(root / "empty.ini"),
                     "--out", str(tmp_path)])
    assert code == 0
    got = (sha256(tmp_path / "jobs.csv"), sha256(tmp_path / "report.csv"))
    assert got == GOLDEN[(trace, policy, backfill)]


@pytest.mark.parametrize("backfill", ["on", "off"])
@pytest.mark.parametrize("policy", [k.value for k in HEURISTIC_KINDS])
def test_golden_overrun_outputs(swf_paths, tmp_path, policy, backfill):
    root, paths = swf_paths
    code = cli.main(["simulate", "--trace", str(paths["overrun"]),
                     "--policy", policy, "--backfill", backfill,
                     "--seed", "0", "--config", str(root / "empty.ini"),
                     "--out", str(tmp_path)])
    assert code == 0
    got = (sha256(tmp_path / "jobs.csv"), sha256(tmp_path / "report.csv"))
    assert got == GOLDEN_OVERRUN[(policy, backfill)]


# -- the learned policy ------------------------------------------------------
# Unlike the heuristic digests, these go through numpy matmuls, whose
# rounding depends on the numpy and BLAS build. They were recorded with
# numpy 2.4.6 on scipy-openblas 0.3.31 (x86_64, Haswell kernels) and hold
# for that build; another build may differ in the last bits and fail them
# without any change to the program.

# c08's job mix: 32 processors, runtimes 5-10000 s, exact estimates
RL_MIX = dict(runtime_min=5.0, runtime_max=10000.0, total_procs=32,
              overestimate_min=1.0, overestimate_max=1.0)
RL_TRAIN = SyntheticConfig(job_count=120, arrival_rate=0.005, seed=111, **RL_MIX)
# a burst: the ready queue stays deeper than the 16 visible slots
RL_EVAL = SyntheticConfig(job_count=200, arrival_rate=2.0, seed=112, **RL_MIX)

# case -> extra [agent] keys
RL_CASES = {
    "plain": "",
    "cost": "cost_weight = 0.1\n",
}

# case -> (curve rewards of the 4 epochs, sha256 of evaluate's jobs.csv,
# sha256 of evaluate's report.csv)
GOLDEN_RL = {
    "cost": ([-5.661973774160776, -9.628848123325216, -7.59438797338107,
              -9.642437463177304],
             'c99ea7a0b2a3a8bb4291709c1ff9446ee2b24bef80f431e83d2cea14f962f89d',
             'fb108859e0d29e95180cdb93e7d12fdf0cde211fc09d7a6d68ba9a6696e0ea73'),
    "plain": ([-5.661973774160776, -8.544273989260835, -5.643800681935458,
               -5.916601086102196],
              '1c40d3c2a369c199bb991b879b52dc7eea588c353d792efb453b2902ea99a3fc',
              '7fe4798c70b8b3936b91148e4e23c661c397eeae214c3281fb1cb55c33dee234'),
}


@pytest.fixture(scope="module")
def rl_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_rl")
    for name, cfg in (("train", RL_TRAIN), ("eval", RL_EVAL)):
        write_swf(root / f"{name}.swf", generate_synthetic(cfg))
    return root


@pytest.mark.parametrize("case", sorted(RL_CASES))
def test_golden_rl_train_and_evaluate(rl_paths, tmp_path, case):
    """A short seeded ``train`` gives these exact curve rewards, and
    ``evaluate`` of the model it writes gives these exact outputs."""
    config = tmp_path / "agent.ini"
    config.write_text("[agent]\ntime_norm = 3600.0\nactor_lr = 0.01\n"
                      "critic_lr = 0.05\nvalidate_every = 2\n" + RL_CASES[case])
    train_out, eval_out = tmp_path / "train", tmp_path / "eval"
    assert cli.main(["train", "--trace", str(rl_paths / "train.swf"),
                     "--epochs", "4", "--seed", "7", "--config", str(config),
                     "--out", str(train_out)]) == 0
    with open(train_out / "curve.csv") as fp:
        rows = [line.split(",") for line in fp.read().splitlines()[2:]]
    rewards = [float(row[1]) for row in rows]
    assert cli.main(["evaluate", "--trace", str(rl_paths / "eval.swf"),
                     "--model", str(train_out / "model.json"),
                     "--seed", "7", "--config", str(config),
                     "--out", str(eval_out)]) == 0
    got = (rewards, sha256(eval_out / "jobs.csv"),
           sha256(eval_out / "report.csv"))
    assert got == GOLDEN_RL[case]


# (sampled rollout digest and steps, random baseline reward) for
# test_golden_rl_trajectories
GOLDEN_RL_TRAJECTORIES = (
    'c3fbc82f8e1ce144b5b3dfbfce9f9facd55c30f4890400285bb33ca50bc9126a', 235,
    -131.93633747972217)


def _trajectory_digest(traj, actor) -> str:
    """Digest of every recorded step, with each step's log-probability of
    its action recomputed from the recorded state, mask and action under
    ``actor``: the rollout samples without a cost adjustment, so this is
    the log-probability the action was drawn with."""
    log_probs = []
    for state, mask, action in zip(traj.states, traj.masks, traj.actions):
        logits = neural.predict(actor, state[None, :])[0]
        probs = softmax(np.where(mask, logits, -np.inf))
        log_probs.append(float(np.log(probs[action])))
    h = hashlib.sha256()
    for steps in (traj.states, traj.masks, traj.cost_norms):
        h.update(np.stack(steps).tobytes())
    for values in (traj.actions, log_probs, traj.rewards):
        h.update(np.asarray(values).tobytes())
    return h.hexdigest()


def test_golden_rl_trajectories():
    """Every recorded step of a sampled rollout with a cost weight (states,
    masks, cost terms, actions and their log-probabilities), and the random
    baseline's reward, on the burst trace of ``RL_EVAL``."""
    trace = generate_synthetic(RL_EVAL)
    hyper = Hyperparameters(seed=7, cost_weight=0.1, time_norm=3600.0)
    agent = MarsAgent(hyper)
    _, traj, _, _ = agent.run_collect(trace.jobs, trace.total_procs,
                                      rng=np.random.default_rng(7),
                                      record=True)
    baseline = random_baseline(trace.jobs, trace.total_procs, hyper,
                               episodes=3, seed=7)
    got = (_trajectory_digest(traj, agent.model.actor), len(traj), baseline)
    assert got == GOLDEN_RL_TRAJECTORIES
