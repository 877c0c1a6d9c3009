"""Pinned output checksums: fixed-seed runs must reproduce these exact bytes.

Six small in-process runs cover every joint-path component (LL, LN, NL,
NN), specular rays on both hops, absolute delays with split strongest
clusters, the background channel in embedded mode and, from an NLOS hop
between moving nodes, in added mode with o_isac = 0.5, sectorized arrays
of unequal sizes with slanted elements and a custom spacing, and the full
convolution, each run serially and with a pool of 2 workers.
Every output file except manifest.txt is pinned by its SHA-256, and no
other file may be left; of the manifest only the path-loss lines are
pinned, so run-time counters can be added to it freely.

numpy Generator streams are not stable across numpy releases, so the
digests are checked only on the numpy version that produced them. A change
that alters output bytes on purpose regenerates them once and says why.
"""
import hashlib
import os

import numpy as np
import pytest

from isacsim.config import validate_config
from isacsim.runner import concat_study, run

GOLDEN_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"digests belong to numpy {GOLDEN_NUMPY}; Generator streams "
    f"differ across numpy releases (found {np.__version__})",
)

CONFIGS = {
    # bi-static, every hop LOS: LL/LN/NL/NN plus a specular background row
    "bistatic_los_case2rn": (run, (
        "frequency_hz = 6e9\nmaster_seed = 11\ndrops = 3\nconcat_case = Case2RN\n"
        "conditions.tx_target = LOS\nconditions.target_rx = LOS\n"
        "conditions.background = LOS\nnodes.tx.elements = 2\nnodes.rx.elements = 2\n"
        "nodes.target.velocity_mps = 8, 0, 0\nsnapshots.count = 3\n"
        "polarization.mode = full\nrcs.b2_std_db = 3\nbackground.enabled = true\n"
        "coupling.mode = embedded\ncoupling.removal_fraction = 0.3\n"
    )),
    # bi-static, both hops LOS, absolute delays and split strongest clusters
    "bistatic_los_absolute_split": (run, (
        "frequency_hz = 6e9\nmaster_seed = 3\ndrops = 3\nconcat_case = Case1N\n"
        "conditions.tx_target = LOS\nconditions.target_rx = LOS\n"
        "conditions.background = LOS\nabsolute_delay = true\nsplit_strongest = true\n"
        "nodes.tx.elements = 2\nnodes.rx.elements = 2\nsnapshots.count = 2\n"
        "background.enabled = true\n"
    )),
    # bi-static, moving transmitter and receiver, NLOS background added at half weight
    "bistatic_nlos_background_added": (run, (
        "frequency_hz = 6e9\nmaster_seed = 19\ndrops = 3\nconcat_case = Case2RN\n"
        "conditions.tx_target = LOS\nconditions.target_rx = NLOS\n"
        "conditions.background = NLOS\nnodes.tx.elements = 2\nnodes.rx.elements = 2\n"
        "nodes.tx.velocity_mps = 3, -2, 0.5\nnodes.rx.velocity_mps = -1, 4, 0\n"
        "nodes.target.velocity_mps = 0, 5, 0\nsnapshots.count = 3\n"
        "background.enabled = true\ncoupling.mode = added\ncoupling.o_isac = 0.5\n"
    )),
    # sectorized 3- and 5-element arrays, +45 and -30 degree slants, a
    # custom receive spacing, full polarization, moving transmitter and target
    "bistatic_sectorized_slanted_arrays": (run, (
        "frequency_hz = 6e9\nmaster_seed = 23\ndrops = 3\nconcat_case = Case2RN\n"
        "conditions.tx_target = LOS\nnodes.tx.elements = 3\nnodes.rx.elements = 5\n"
        "nodes.tx.pattern = sectorized-38901\nnodes.rx.pattern = sectorized-38901\n"
        "nodes.tx.slant_deg = 45\nnodes.rx.slant_deg = -30\n"
        "nodes.rx.element_spacing_m = 0.031\nnodes.tx.velocity_mps = 1, 2, 0\n"
        "nodes.target.velocity_mps = 4, -3, 0\nsnapshots.count = 2\n"
        "polarization.mode = full\n"
    )),
    "monostatic_case3n": (run, (
        "frequency_hz = 6e9\nmaster_seed = 5\ndrops = 2\nsensing_mode = monostatic\n"
        "concat_case = Case3N\nnodes.tx.elements = 2\nsnapshots.count = 2\n"
    )),
    # every case, including the full convolution, under auto conditions
    "study_auto": (concat_study, "frequency_hz = 6e9\ndrops = 20\n"),
}

PATH_LOSS_LINES = {
    "bistatic_los_case2rn": [
        "mean_two_hop_path_loss_db = 123.189239",
        "mean_combined_path_loss_db = 85.304201",
    ],
    "bistatic_los_absolute_split": [
        "mean_two_hop_path_loss_db = 123.189239",
        "mean_combined_path_loss_db = 123.189946",
    ],
    "bistatic_nlos_background_added": [
        "mean_two_hop_path_loss_db = 135.089426",
        "mean_combined_path_loss_db = 135.089985",
    ],
    "bistatic_sectorized_slanted_arrays": ["mean_two_hop_path_loss_db = 131.122697"],
    "monostatic_case3n": ["mean_two_hop_path_loss_db = 129.966335"],
    "study_auto": ["mean_two_hop_path_loss_db = 126.136368"],
}

# one "file sha256" line per output file
GOLDEN = {
    "bistatic_los_case2rn": """
cdf_asa_deg_Case2RN.txt 84381d3c7bf5bc594e40ff6a71f46fedec2a14c57bd4c0031c5ccd2fd7fe806f
cdf_asd_deg_Case2RN.txt e103f36be1ae36fb67affc0888a381921d633345b24d91e5f3fd0dcac1f083d8
cdf_ds_ns_Case2RN.txt 7ef43a69c4307080ef6a860cacdbb62083a068f31249a6da2f50fe7f9813abd2
cdf_power_Case2RN.txt 15dbefb9bf02a71e9640363d84f39443c1e7e42ca41df009be5feb5f5e46331c
cdf_zsa_deg_Case2RN.txt 8c66c139feece6943a25ec89ac78e6a2ad2b41251394d9e062820e9897842393
cdf_zsd_deg_Case2RN.txt db6583eb8d81df16f8dfd5e04e6deb290950557b10e92ed8c41c6c6f6bec35d5
cir.txt c44f2ca93630da3bdac1855b21de1051d20433df6e179770e61b5663b6c48297
statistics.txt cc0cbccd61aac979390ec72068fe115d587a70c8eec9b6176a0d138b7c3b249d
""",
    "bistatic_los_absolute_split": """
cdf_asa_deg_Case1N.txt c3e701b475172db59d42dc9eeec46ce8e757e768cf05815a3901792e11d95727
cdf_asd_deg_Case1N.txt 30b9ab2e13c61d151eec2fb70af92ec386ba05980e41ef727f72a9e0af1edf3e
cdf_ds_ns_Case1N.txt e071948d5b9fc763f42b25b57181d2625889f5e899486a1ab1fdddd5d895f52d
cdf_power_Case1N.txt 15dbefb9bf02a71e9640363d84f39443c1e7e42ca41df009be5feb5f5e46331c
cdf_zsa_deg_Case1N.txt c0eea453069f8ef8c2ff1d35bb3fe2e3a97f2492a86f9d894026c0ff5e3696cd
cdf_zsd_deg_Case1N.txt e59b4b19cb6b90e7b1a21eda59a9c9378642e966995f560f3be0c1296376d324
cir.txt ec4b0ec046dbe9276299ff7105603c37c75dce15c1dbccb559ee56b3be38a861
statistics.txt 1623f833222ae32a02b97313066471379fea57b194a060135f55969b1f2a20ab
""",
    "bistatic_nlos_background_added": """
cdf_asa_deg_Case2RN.txt 1caf06cf166a6c4c67b8249b31bb0d5cc9b9706e2a654b879cc42ff69cc4d659
cdf_asd_deg_Case2RN.txt c8870954d8039db235bc981b25d0465dba9c9c9afbdddd5c78df12c431588d0c
cdf_ds_ns_Case2RN.txt ce78d7f9f383c6db95974740d59627e0d431d386700188bee72ab8f333c15501
cdf_power_Case2RN.txt 15dbefb9bf02a71e9640363d84f39443c1e7e42ca41df009be5feb5f5e46331c
cdf_zsa_deg_Case2RN.txt 221ad2a79660f38dbf403841204afaece5c4a0191e9f5f872ebc94b453920701
cdf_zsd_deg_Case2RN.txt 7ba4e0808356eaa81b9c0be5bd0262e6306e4642e3dbc37a656f9714a4e73586
cir.txt e7dd23ec85bce9e6f9cc3acba7b0ce16513f686940841c5dc686e51646643c99
statistics.txt 65b4c81a3b5a533cd3c47840434dcbc317a8dcc0f6610c060345842fe7f552a8
""",
    "bistatic_sectorized_slanted_arrays": """
cdf_asa_deg_Case2RN.txt bb7f6431befb5abee5d811260ab02dc1c0b6372f1be03bef2c40f99b2807cd30
cdf_asd_deg_Case2RN.txt 47b708718553b977b057d04372a9d21dbec4f762f05572a7ec899190fc5df9ec
cdf_ds_ns_Case2RN.txt 33c68c72ac895760f11bed08dd5f2e7763d1aad8f1d5d6a2dd7dae5a6fe31a8a
cdf_power_Case2RN.txt 15dbefb9bf02a71e9640363d84f39443c1e7e42ca41df009be5feb5f5e46331c
cdf_zsa_deg_Case2RN.txt 8e81682d7f7105ce714c6396dc4d5424d17f94b12d1215269cc22d5bf1a5b792
cdf_zsd_deg_Case2RN.txt a8cfd92cf06a600719d1b1d3dfb03455a78c434c535af1a435f5a7da7f885ec7
cir.txt a65c91cb88aaebad198db8ba0310387a9b9b5acfd80125814790317862bcc8be
statistics.txt 4975154d330329a3ef5e9cf3f5e4adc62918d05d4d57c8ac009b3665d1f5cd3e
""",
    "monostatic_case3n": """
cdf_asa_deg_Case3N.txt b6be4eda26745c7474bb6f12137a64711c2309b2dc46b5c6b835c63afca89fac
cdf_asd_deg_Case3N.txt 1dc3485378eafe2b3bb3ad5bcb4557dcd3ada92accef6b0b84d6745cecb2775f
cdf_ds_ns_Case3N.txt 706d1a1ed22dfd3e92097e325ee4d99ec16be4b299c4dab7cc0dbed6d762257b
cdf_power_Case3N.txt 5deccbdd9273c1fb366fd883a62d435f84acf932fa10979385f3f36df553b5aa
cdf_zsa_deg_Case3N.txt ac6501505144c86d97e7a58eccaafe23613307601d4a5b3efb9f36afbd03733d
cdf_zsd_deg_Case3N.txt 003af4fd4c71b4cc26054966c7951b04e50ecff71b10ab43d6f25fe57e4cd2bf
cir.txt adffb234bc87c011ff7a1ddf108fe6d0f869f1d3d1f36a883134699e7824d244
statistics.txt 4cfbab3da199084ae9aeded8992988a12916e627e23419efa145cc9c91bea548
""",
    "study_auto": """
cdf_asa_deg_Case0.txt de1735f155aa95290f69083890ad65c8b7f56026bff9eb65a11a489cab8dcdbf
cdf_asa_deg_Case1.txt de1735f155aa95290f69083890ad65c8b7f56026bff9eb65a11a489cab8dcdbf
cdf_asa_deg_Case1N.txt de1735f155aa95290f69083890ad65c8b7f56026bff9eb65a11a489cab8dcdbf
cdf_asa_deg_Case2O.txt df2e483fca4bdc92528f11985071e77c299818b8bfd166f10488ef1c01abf250
cdf_asa_deg_Case2ON.txt df2e483fca4bdc92528f11985071e77c299818b8bfd166f10488ef1c01abf250
cdf_asa_deg_Case2R.txt 486665cf3b1bd84dbdf490da960c5632a342d70dc75024809cc000a391852f26
cdf_asa_deg_Case2RN.txt 486665cf3b1bd84dbdf490da960c5632a342d70dc75024809cc000a391852f26
cdf_asa_deg_Case3.txt 070ded072f2097cd1f937fb1cd2e481a68b540aa43b31e44d6bd57b48d90f6e1
cdf_asa_deg_Case3N.txt 070ded072f2097cd1f937fb1cd2e481a68b540aa43b31e44d6bd57b48d90f6e1
cdf_asa_deg_CaseA.txt 3d4480ff5a51d4c8b288f4a192c3fbbff4276d911652ae855556772f21f977d2
cdf_asd_deg_Case0.txt 81a1858a6b51e01768de2f7f8186d640814c6e97f2cce7929eb2f52612121c15
cdf_asd_deg_Case1.txt 81a1858a6b51e01768de2f7f8186d640814c6e97f2cce7929eb2f52612121c15
cdf_asd_deg_Case1N.txt 81a1858a6b51e01768de2f7f8186d640814c6e97f2cce7929eb2f52612121c15
cdf_asd_deg_Case2O.txt cbf714f4bd2a8c616a21f441c83fe83e45c5e3ddbba570960cd94bc00f53fb42
cdf_asd_deg_Case2ON.txt cbf714f4bd2a8c616a21f441c83fe83e45c5e3ddbba570960cd94bc00f53fb42
cdf_asd_deg_Case2R.txt 99f40d5fe30dca38848f552b2a5bc116f260aedc8b7b007c3fc4a1e656240395
cdf_asd_deg_Case2RN.txt 99f40d5fe30dca38848f552b2a5bc116f260aedc8b7b007c3fc4a1e656240395
cdf_asd_deg_Case3.txt 9ab8205389dca3775ca9712878e48275ba8e3761b6b28d23577c34919dcfad13
cdf_asd_deg_Case3N.txt 9ab8205389dca3775ca9712878e48275ba8e3761b6b28d23577c34919dcfad13
cdf_asd_deg_CaseA.txt 4c8d3306f64b93d16f9e2845f0966bd3f99eb220efa5f6686fd42e41de42ad58
cdf_ds_ns_Case0.txt dce0f2631848e20810577d41869ed99d70053bf5cb19f57976e170fe24e08352
cdf_ds_ns_Case1.txt dce0f2631848e20810577d41869ed99d70053bf5cb19f57976e170fe24e08352
cdf_ds_ns_Case1N.txt dce0f2631848e20810577d41869ed99d70053bf5cb19f57976e170fe24e08352
cdf_ds_ns_Case2O.txt 05680bb887481ee2700df89bd51acbc60669f8d46eb100ebdfec01076dc300bc
cdf_ds_ns_Case2ON.txt 05680bb887481ee2700df89bd51acbc60669f8d46eb100ebdfec01076dc300bc
cdf_ds_ns_Case2R.txt 6fb100385d5c54267138170f5850c4d402ea8aaebfac42d88ff6225bb9763bfb
cdf_ds_ns_Case2RN.txt 6fb100385d5c54267138170f5850c4d402ea8aaebfac42d88ff6225bb9763bfb
cdf_ds_ns_Case3.txt 94419fb3d8fac315a7c036d44d3a7edbc53957c59b242bc6fa1afe44d7f8cc04
cdf_ds_ns_Case3N.txt 94419fb3d8fac315a7c036d44d3a7edbc53957c59b242bc6fa1afe44d7f8cc04
cdf_ds_ns_CaseA.txt 28f732ebd3a78c21768728d888ffc4dee2170cbfeb18b1ae3d3172db7c5c088a
cdf_power_Case0.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_Case1.txt a0d7325d9911e0fec4029ce89d41f907f798ee4882d9d54919dea40690ea78b8
cdf_power_Case1N.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_Case2O.txt bc3e8bb4390f74b56dff517713c309d84bc81d6d225adf1733b93052fe06af94
cdf_power_Case2ON.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_Case2R.txt 4bc6673ed2fcf6577e49691db36f3b3f6425835f2d3ad201041bf25559b6b717
cdf_power_Case2RN.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_Case3.txt 02e15a60f9e95cbf6ad184cdee7494dfa8d6ce3c96a3e5bcbcb7c2c41e699460
cdf_power_Case3N.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_CaseA.txt 781f134edf9d48115d5ba8e3cf705938803cc5827aa9cb9a9e5e2bfe60245efb
cdf_power_ratio_Case0.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_ratio_Case1.txt b3933810f2f520837201a5e8cd3299797d209a55ae9c9c510d46363a101208ce
cdf_power_ratio_Case1N.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_ratio_Case2O.txt e33ca4fb6a2def9ca5aa2f51da70cec4a9543338a642d5925429107ee29ffaa0
cdf_power_ratio_Case2ON.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_ratio_Case2R.txt 1fae4f5047dbada191cc1e2f71e892568f0444468bf5dd3fd2e079a050faf7be
cdf_power_ratio_Case2RN.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_ratio_Case3.txt 1189deb8834ffbb703c308cc75e7edbe209a10fcda3f51d6874f8983278ae4ce
cdf_power_ratio_Case3N.txt c2a1b9d626cb52ec0445727fe3e90d26caaf1c373bedbace81a79c399bc6ef40
cdf_power_ratio_CaseA.txt 9ceceec86567ed7a79227e13d933b72f0b6bfd9e22fe16a6c53e4e791c476ae5
cdf_zsa_deg_Case0.txt 32aecc6606e069c5afc47b5a0d548e7fef9146b89088481a1829ea91541b1e3c
cdf_zsa_deg_Case1.txt 32aecc6606e069c5afc47b5a0d548e7fef9146b89088481a1829ea91541b1e3c
cdf_zsa_deg_Case1N.txt 32aecc6606e069c5afc47b5a0d548e7fef9146b89088481a1829ea91541b1e3c
cdf_zsa_deg_Case2O.txt a626abecec78d97bdc17bf8a9c505dfa3f7553af6e6cfdbf52b23022a3e1fc42
cdf_zsa_deg_Case2ON.txt a626abecec78d97bdc17bf8a9c505dfa3f7553af6e6cfdbf52b23022a3e1fc42
cdf_zsa_deg_Case2R.txt 34a0fafb01ef93ff3e7fbb939dc3a61d7cf4dbdf55a5c181521bd91e451fc03d
cdf_zsa_deg_Case2RN.txt 34a0fafb01ef93ff3e7fbb939dc3a61d7cf4dbdf55a5c181521bd91e451fc03d
cdf_zsa_deg_Case3.txt ae93681f3c3ea4043492dca9fbec591dfaae1914873a4ee48bd9295f852aba8b
cdf_zsa_deg_Case3N.txt ae93681f3c3ea4043492dca9fbec591dfaae1914873a4ee48bd9295f852aba8b
cdf_zsa_deg_CaseA.txt b47a45b66d7860b9a9ff3abfef39f77af1db38fd61a3451dbe39c27b971e6227
cdf_zsd_deg_Case0.txt fb70751221459c353714d43b4e395300a688218dfa8068de46dcd41dced290b5
cdf_zsd_deg_Case1.txt fb70751221459c353714d43b4e395300a688218dfa8068de46dcd41dced290b5
cdf_zsd_deg_Case1N.txt fb70751221459c353714d43b4e395300a688218dfa8068de46dcd41dced290b5
cdf_zsd_deg_Case2O.txt 6a649dd1021929c4ab6af3f17c3f45f0d88b18d8a4941cbdd9e685bc99ba7c83
cdf_zsd_deg_Case2ON.txt 6a649dd1021929c4ab6af3f17c3f45f0d88b18d8a4941cbdd9e685bc99ba7c83
cdf_zsd_deg_Case2R.txt c23a7b2148d813d9c92f2c12d401de267183b5e1b1edd055294b1dbe5465d058
cdf_zsd_deg_Case2RN.txt c23a7b2148d813d9c92f2c12d401de267183b5e1b1edd055294b1dbe5465d058
cdf_zsd_deg_Case3.txt 922b5f9c26c636ff7b58fd80c3216881f4619ba4115717dd461b5671f44a29c5
cdf_zsd_deg_Case3N.txt 922b5f9c26c636ff7b58fd80c3216881f4619ba4115717dd461b5671f44a29c5
cdf_zsd_deg_CaseA.txt b878fd3a990cc272fea35818a1ef70cf44af7f819be2b4ec73038a3a61516176
statistics.txt 9603b5ff4fa5b62e3bad0b88ea7611199e567a12b71d78de7093b552c860b43b
""",
}


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name, workers", [
    *(pytest.param(name, 1, id=name) for name in sorted(CONFIGS)),
    *(pytest.param(name, 2, id=f"{name}-2workers") for name in sorted(CONFIGS)),
])
def test_outputs_match_pinned_digests(tmp_path, name, workers):
    entry, text = CONFIGS[name]
    out = str(tmp_path / name)
    entry(validate_config(text), out_dir=out, workers=workers)
    got = {
        f: _sha256(os.path.join(out, f))
        for f in sorted(os.listdir(out))
        if f != "manifest.txt"
    }
    expect = dict(line.split() for line in GOLDEN[name].strip().splitlines())
    assert got == expect
    with open(os.path.join(out, "manifest.txt"), encoding="utf-8") as fh:
        manifest = [line for line in fh.read().splitlines() if "path_loss" in line]
    assert manifest == PATH_LOSS_LINES[name]


def test_study_rows_keep_their_last_digits(tmp_path):
    """Drop 37's Case2R row of this study prints an ASD whose last digit
    moves if one term of the circular spread (the weighted mean of the
    sorted angles) is summed pairwise instead of angle after angle."""
    out = str(tmp_path / "study")
    concat_study(validate_config("frequency_hz = 6e9\nmaster_seed = 7\ndrops = 38\n"),
                 out_dir=out)
    assert _sha256(os.path.join(out, "statistics.txt")) == (
        "c0ca264bce5ea1a99f237c24b066eb7ec142202c61896ce823f3b70d1e408b28")
