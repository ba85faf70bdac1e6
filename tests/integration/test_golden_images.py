"""Golden pin on persist-payload *values*: crash and recovered images.

``RunResult`` digests never read a payload, so a change to how persist
ops snapshot, rebase or apply line values can keep every golden cell
green while corrupting what reaches PM. This test pins the bytes
instead. Each case crashes at 1/4, 1/2 and 3/4 of its clean run's
length and hashes two images: the crash image (PM after the
persistence-domain flush) and the image recovery produces from it.

An image hashes as its sorted *nonzero* words, so an absent word and an
explicit zero compare equal - only values are pinned, not how the image
stores them.

Next to the digests it pins each point's :class:`RecoveryReport`
counts and undone RIDs: a scan that skips or double-counts a log record
can leave both images unchanged.

Cases: every ``tests/property/corpus`` schedule and the quick Fig. 7
HM/64 and Q/2048 cells, each under ``asap``, ``asap_redo`` and
``hwundo``.
"""

from __future__ import annotations

import dataclasses
import glob
import hashlib
import os

import pytest

from repro.harness.fuzz import build_machine as build_case_machine
from repro.harness.fuzz import load_corpus_entry
from repro.harness.runner import build_machine, default_params
from repro.recovery import crash_machine, recover

CORPUS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), "..", "property", "corpus", "*.json"))
)
SCHEMES = ("asap", "asap_redo", "hwundo")
FRACTIONS = ((1, 4), (1, 2), (3, 4))

#: case -> sha256 of the crash and recovered images at each fraction
GOLDEN = {
    "HM/64/asap": [
        ("155993386e0210ba19195a0e2ee885385a80e8925d38683c0869457d7e9fec9a",
         "155993386e0210ba19195a0e2ee885385a80e8925d38683c0869457d7e9fec9a"),
        ("55707b341fa8073c06f79dcb7735b2d5659875dc74551db4ec68c3d61a8227f2",
         "55707b341fa8073c06f79dcb7735b2d5659875dc74551db4ec68c3d61a8227f2"),
        ("da9274bdd836a837187b8bfefe6814ee63dee0a26b7174e305e5bb591f040f95",
         "da9274bdd836a837187b8bfefe6814ee63dee0a26b7174e305e5bb591f040f95"),
    ],
    "HM/64/asap_redo": [
        ("6ba3fb1245bdc5726ccfdc5f8065679991e805a7cf03272a1f46b84dc42b56a8",
         "988d27248ae7cf0bcde3d42b19ae24383d372431d298ccd2ceaef907efcb5d42"),
        ("ce530f6b7eb8a2b97c2147eaf2f8aee0269b9a1d8ab625488c026518a8b29e19",
         "099b2c8b47cc68cfcba31288b38241792d32ee84bfa9814ce16f07350586242d"),
        ("cab97da32b91a44595e6f8f78db9b774b614ce4be9f4bb261c8c0d2a54a11c85",
         "cb1c97439877678af3ec27bfc8d8aee75ce6f771bd05af1fe0ba112a04134594"),
    ],
    "HM/64/hwundo": [
        ("59d654101e663e867429669875e9021107765742a58e8c4913eafcbd71b1c380",
         "59d654101e663e867429669875e9021107765742a58e8c4913eafcbd71b1c380"),
        ("58c2e326771a5bc51e6a2bade375a8fea4252cdbc10a2deb541eee69eb880366",
         "58c2e326771a5bc51e6a2bade375a8fea4252cdbc10a2deb541eee69eb880366"),
        ("0550dc4b214dc6398297ecce98135eda1a321ad40af6fb485b27382c47e8f090",
         "0550dc4b214dc6398297ecce98135eda1a321ad40af6fb485b27382c47e8f090"),
    ],
    "Q/2048/asap": [
        ("355fa5edb70b324c06f30e574ab30fd4dbe042a7183a95e740641cf8ee5bfbde",
         "1ec7679769999d788ce6d3acaca504953b9ab00fd00b2f49095a033d34ad3b64"),
        ("c24132af7b614c06b58fbba528fada5a65ae3385f5642f751b508d7307f193ff",
         "c24132af7b614c06b58fbba528fada5a65ae3385f5642f751b508d7307f193ff"),
        ("b88fb49547d444abdd8dee114affc30368adb882dcbea17f7f00bfd30dea066d",
         "4fe5377576715675e030ea790f0eefc593098ddc818ec912c7073c040853e57c"),
    ],
    "Q/2048/asap_redo": [
        ("baac6a56d84c2d015b4d132ea240b2532af48e2280012b40541a97e5ff4f425b",
         "baac6a56d84c2d015b4d132ea240b2532af48e2280012b40541a97e5ff4f425b"),
        ("8e793215c862cf3a8310ccbc04d8dec769b89bc3ca0b338ad17740905d329695",
         "46eaaf77215234244ad26a9e2b032046d6172696fdee5c4df03224f5fd9b0750"),
        ("541481d4b7d7c0bf899ed1473d841305344a37a772929efaa3420ca4e11b34fa",
         "541481d4b7d7c0bf899ed1473d841305344a37a772929efaa3420ca4e11b34fa"),
    ],
    "Q/2048/hwundo": [
        ("32d7f067ec2cfd4546e04d484a10a0013c0017f1e387e32721516285cddd0584",
         "32d7f067ec2cfd4546e04d484a10a0013c0017f1e387e32721516285cddd0584"),
        ("fcae893b43c89aa98ba9a3c998cb309d7f065d71827a4ed3e3a84b05e0aefc51",
         "fcae893b43c89aa98ba9a3c998cb309d7f065d71827a4ed3e3a84b05e0aefc51"),
        ("d5fe282d8046bf0b57f4bd226d1ae66e6d040bf48c4beebe90cded983026c89b",
         "d5fe282d8046bf0b57f4bd226d1ae66e6d040bf48c4beebe90cded983026c89b"),
    ],
    "redo-premature-dep-clear-wpq4/asap": [
        ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        ("72416ec0fd1c27a193532a512c2312558c083c32fcbc31010542fa2336143ea8",
         "72416ec0fd1c27a193532a512c2312558c083c32fcbc31010542fa2336143ea8"),
        ("64123192ef8be37ed9a2f4caff78555e0d97f8bc52612e95576d39b04a20e38f",
         "64123192ef8be37ed9a2f4caff78555e0d97f8bc52612e95576d39b04a20e38f"),
    ],
    "redo-premature-dep-clear-wpq4/asap_redo": [
        ("c0683c7dd2ea4191ad08c5da15bc5d34119a734545dc14bc05349d1d77abb916",
         "c0683c7dd2ea4191ad08c5da15bc5d34119a734545dc14bc05349d1d77abb916"),
        ("0ba320f5715c30c44425ac03c53bb11d67f87d9119d4833958e83135f7d8d70b",
         "0ba320f5715c30c44425ac03c53bb11d67f87d9119d4833958e83135f7d8d70b"),
        ("2c47096ba8d51b85142268065ec5e3705b1902b9523dc131e0f883c95ad6d8aa",
         "2c47096ba8d51b85142268065ec5e3705b1902b9523dc131e0f883c95ad6d8aa"),
    ],
    "redo-premature-dep-clear-wpq4/hwundo": [
        ("dca54657e7c20e7cc5004297bee1fc58d66830f60ff08c2436aa9589cf9a3850",
         "dca54657e7c20e7cc5004297bee1fc58d66830f60ff08c2436aa9589cf9a3850"),
        ("fde05c4a08c01d45f504a27caf18a9d0d1cca255d9d479084abc6fa542f05819",
         "fde05c4a08c01d45f504a27caf18a9d0d1cca255d9d479084abc6fa542f05819"),
        ("3d095f0c0eb54022d9d9d1c6d8147a0dcf7da243b66bcced27b4894bce0b2a1e",
         "3d095f0c0eb54022d9d9d1c6d8147a0dcf7da243b66bcced27b4894bce0b2a1e"),
    ],
    "service-svc-midburst-wpq4/asap": [
        ("f144bc18490c9afa893a7f0892b719779c2be296f26c269319798a2faebf8a37",
         "f144bc18490c9afa893a7f0892b719779c2be296f26c269319798a2faebf8a37"),
        ("5e046f82ecdbabdab89d1b192a980ea026ddad29f06fd0e46fde7eb9b64d759f",
         "5e046f82ecdbabdab89d1b192a980ea026ddad29f06fd0e46fde7eb9b64d759f"),
        ("93e3f56d650ee7eca57f59ada609938cd0546eb0cc76b593b50c82f14f1630cb",
         "93e3f56d650ee7eca57f59ada609938cd0546eb0cc76b593b50c82f14f1630cb"),
    ],
    "service-svc-midburst-wpq4/asap_redo": [
        ("0028937080fdcdeca8a4f8afc7aa55801b994121b356a69a9d5e479bf8e94fa6",
         "77945e109195a30b58e2d735d637d18cb026dedbc73058b9b75dd7a88656ccf5"),
        ("1545e25ed7910f11c050f539766d8dedd0d846aaf81c227759d1fbafe63fa6c3",
         "48757b6734d4a2c719f18c989718c7e57f521f3c659d4023ee401929c8fa140f"),
        ("7ae4b14068b3e8493ebccab748f92f8de7a6a9c2adddf6008433ae7f05075736",
         "676b8e2425b74bd908ba52a4e1aa3766ea06dc363e2cea55678a10f4598a9c1d"),
    ],
    "service-svc-midburst-wpq4/hwundo": [
        ("ef9c104152eaa28107223a2bd3510b042115872077e56937a065a01e0df8d2d4",
         "ef9c104152eaa28107223a2bd3510b042115872077e56937a065a01e0df8d2d4"),
        ("a1b8306ed8a6b4e9fdeec56fb946739437f5b0af787367e3fcacfa87cf21caf9",
         "a1b8306ed8a6b4e9fdeec56fb946739437f5b0af787367e3fcacfa87cf21caf9"),
        ("79656bccf73e4c038487952549a91437e908b42f041f6921a59415e8547c2422",
         "79656bccf73e4c038487952549a91437e908b42f041f6921a59415e8547c2422"),
    ],
    "undo-cross-thread-rmw-wpq4/asap": [
        ("4b1866f0c48839211a2eedaf0176550b4b8949fd1d5d1684e7cd244f40d185dc",
         "4b1866f0c48839211a2eedaf0176550b4b8949fd1d5d1684e7cd244f40d185dc"),
        ("5e380acab83b8bc1ea88b14597f95a8892bbefd6404d832614b52a66599b3690",
         "5e380acab83b8bc1ea88b14597f95a8892bbefd6404d832614b52a66599b3690"),
        ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ],
    "undo-cross-thread-rmw-wpq4/asap_redo": [
        ("736b5b1efef2ad70a4d7f4562af9f0562ddb7b64fbe7014ac3b71bb19ec28d26",
         "736b5b1efef2ad70a4d7f4562af9f0562ddb7b64fbe7014ac3b71bb19ec28d26"),
        ("65f7d31aa95e940b0e18c33cb2520f99d14b948e3423f3cf21649a1f3b8471b9",
         "65f7d31aa95e940b0e18c33cb2520f99d14b948e3423f3cf21649a1f3b8471b9"),
        ("87347f71f42c30aa2ec5ece578eb31d478c137c5d23deb8e07e6358313214b6c",
         "87347f71f42c30aa2ec5ece578eb31d478c137c5d23deb8e07e6358313214b6c"),
    ],
    "undo-cross-thread-rmw-wpq4/hwundo": [
        ("f6b2a3462739144fe53753cb133697bdf01857261ba45b716adf42eff6433339",
         "f6b2a3462739144fe53753cb133697bdf01857261ba45b716adf42eff6433339"),
        ("3471b78d24e644e5bc96f0f3f1be2a34b1a0f5843f9c9014f70cbe964ce8f55e",
         "3471b78d24e644e5bc96f0f3f1be2a34b1a0f5843f9c9014f70cbe964ce8f55e"),
        ("a0060c37bda1075bafa158338cd61d40e11ef24107002b492ed3e02792923e7e",
         "a0060c37bda1075bafa158338cd61d40e11ef24107002b492ed3e02792923e7e"),
    ],
    "undo-incomplete-line-chain-wpq1/asap": [
        ("7ebf6a615f543d54427ed61ac5cd6d970d10349f0c4415dad20080792a0c1adf",
         "7ebf6a615f543d54427ed61ac5cd6d970d10349f0c4415dad20080792a0c1adf"),
        ("cfe91cbac9d528a5237f47fc3e1b5e34c3f5ed5971a0e01d4d681ae1dcc36d49",
         "cfe91cbac9d528a5237f47fc3e1b5e34c3f5ed5971a0e01d4d681ae1dcc36d49"),
        ("f1612131e0c792335647c3eb639c89c711d6ebbc563e11bdfc656d474f5b2757",
         "f1612131e0c792335647c3eb639c89c711d6ebbc563e11bdfc656d474f5b2757"),
    ],
    "undo-incomplete-line-chain-wpq1/asap_redo": [
        ("4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
         "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        ("6e67236f0b182eddaa46da621660aa5045747fd88b76210ec04a666f5849bb9e",
         "6e67236f0b182eddaa46da621660aa5045747fd88b76210ec04a666f5849bb9e"),
        ("9b7e5e97e54ebca6993fea8fdc9306f348afe31b1d7f0587465caabb2471bbb9",
         "9b7e5e97e54ebca6993fea8fdc9306f348afe31b1d7f0587465caabb2471bbb9"),
    ],
    "undo-incomplete-line-chain-wpq1/hwundo": [
        ("dca54657e7c20e7cc5004297bee1fc58d66830f60ff08c2436aa9589cf9a3850",
         "dca54657e7c20e7cc5004297bee1fc58d66830f60ff08c2436aa9589cf9a3850"),
        ("2cbff81bc96208898205843c1a0bdd2d01d9ff719b444691a500f61f5beaf777",
         "2cbff81bc96208898205843c1a0bdd2d01d9ff719b444691a500f61f5beaf777"),
        ("7640a4142a4d165444c020ca07c70e3c96a626e49f84dc1463c711aea211f0aa",
         "7640a4142a4d165444c020ca07c70e3c96a626e49f84dc1463c711aea211f0aa"),
    ],
    "undo-miss-in-flight-mshr1/asap": [
        ("cfe91cbac9d528a5237f47fc3e1b5e34c3f5ed5971a0e01d4d681ae1dcc36d49",
         "cfe91cbac9d528a5237f47fc3e1b5e34c3f5ed5971a0e01d4d681ae1dcc36d49"),
        ("4bfacc9260315cd84ec16f00b0f6ca769114742d5e1806592a24aaa3ba28d1c5",
         "4bfacc9260315cd84ec16f00b0f6ca769114742d5e1806592a24aaa3ba28d1c5"),
        ("329e8f3e23e23c25ea0fcc09bff64f6a8acf22008a65bd02cdbcb59c87f9f15c",
         "329e8f3e23e23c25ea0fcc09bff64f6a8acf22008a65bd02cdbcb59c87f9f15c"),
    ],
    "undo-miss-in-flight-mshr1/asap_redo": [
        ("407232f7eef85032549fb606f0bf9a1425dbd2630637ab3c550fc61e072dd441",
         "407232f7eef85032549fb606f0bf9a1425dbd2630637ab3c550fc61e072dd441"),
        ("2ac498c58ad4349d7ac5f0b9172a7c3e3f2b4bbf8a44de80bf5f8a8635c8dd9a",
         "ab482a31b50113898786f914a3175b250077e49609c67e424f0a198c946cee0c"),
        ("20d6193c10060c136cf6acc0175606d78b0cc0889f6aecd6e67e25469e0d75db",
         "06a2917741cfb9e71dfbf758c8cbddd98bd2228ca29f0abe864ce8e613bec971"),
    ],
    "undo-miss-in-flight-mshr1/hwundo": [
        ("3348ec68edacbff73cb7e86c0309c530b398dbfd26e366b4689bd7497428428b",
         "3348ec68edacbff73cb7e86c0309c530b398dbfd26e366b4689bd7497428428b"),
        ("b02c35ff36623210789ab61c0d811a5873bdc50e8c95f77d19b86886d44dc7a4",
         "b02c35ff36623210789ab61c0d811a5873bdc50e8c95f77d19b86886d44dc7a4"),
        ("32c0595e0fc48e4e842cbdc2ac22fbb4d7c01791a87acdcb6968d092ee77a7a7",
         "32c0595e0fc48e4e842cbdc2ac22fbb4d7c01791a87acdcb6968d092ee77a7a7"),
    ],
}

#: case -> the RecoveryReport at each fraction: (records_scanned,
#: records_matched, restored_lines, undone_rids)
REPORTS = {
    "HM/64/asap": [
        (584, 2, 2, [4294967305, 8589934601]),
        (584, 1, 0, [19, 8589934611, 12884901903]),
        (584, 1, 0, [33, 4294967329, 8589934626]),
    ],
    "HM/64/asap_redo": [
        (584, 29, 77, [
            8589934593, 4294967297, 1, 12884901889, 2, 4294967298, 8589934594,
            4294967299, 12884901890, 8589934595, 4294967300, 3, 8589934596, 12884901891,
            4, 4294967301, 12884901892, 5, 8589934597, 8589934598, 4294967302, 6,
            12884901893, 4294967303, 8589934599, 4294967304, 8589934600, 7, 12884901894,
        ]),
        (584, 64, 175, [
            8589934593, 4294967297, 1, 12884901889, 2, 4294967298, 8589934594,
            4294967299, 12884901890, 8589934595, 4294967300, 3, 8589934596, 12884901891,
            4, 4294967301, 12884901892, 5, 8589934597, 8589934598, 4294967302, 6,
            12884901893, 4294967303, 8589934599, 4294967304, 8589934600, 7, 12884901894,
            4294967305, 8, 8589934601, 4294967306, 8589934602, 12884901895, 4294967307,
            9, 8589934603, 8589934604, 12884901896, 8589934605, 12884901897, 10,
            4294967308, 11, 8589934606, 12884901898, 4294967309, 8589934607, 12, 13,
            8589934608, 4294967310, 8589934609, 12884901899, 14, 15, 4294967311,
            4294967312, 12884901900, 16, 8589934610, 12884901901, 4294967313,
        ]),
        (584, 102, 273, [
            8589934593, 4294967297, 1, 12884901889, 2, 4294967298, 8589934594,
            4294967299, 12884901890, 8589934595, 4294967300, 3, 8589934596, 12884901891,
            4, 4294967301, 12884901892, 5, 8589934597, 8589934598, 4294967302, 6,
            12884901893, 4294967303, 8589934599, 4294967304, 8589934600, 7, 12884901894,
            4294967305, 8, 8589934601, 4294967306, 8589934602, 12884901895, 4294967307,
            9, 8589934603, 8589934604, 12884901896, 8589934605, 12884901897, 10,
            4294967308, 11, 8589934606, 12884901898, 4294967309, 8589934607, 12, 13,
            8589934608, 4294967310, 8589934609, 12884901899, 14, 15, 4294967311,
            4294967312, 12884901900, 16, 8589934610, 12884901901, 4294967313,
            12884901902, 17, 18, 12884901903, 8589934611, 19, 8589934612, 4294967314,
            12884901904, 4294967315, 20, 8589934613, 4294967316, 21, 12884901905, 22,
            8589934614, 4294967317, 23, 8589934615, 12884901906, 4294967318, 8589934616,
            24, 8589934617, 12884901907, 4294967319, 25, 8589934618, 4294967320,
            4294967321, 8589934619, 12884901908, 12884901909, 26, 4294967322,
            8589934620, 12884901910,
        ]),
    ],
    "HM/64/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
    "Q/2048/asap": [
        (584, 3, 16, [9]),
        (584, 0, 0, [8589934613]),
        (584, 3, 18, [8589934626]),
    ],
    "Q/2048/asap_redo": [
        (584, 160, 880, [
            4294967297, 1, 2, 8589934593, 12884901889, 12884901890, 4294967298, 3,
            8589934594, 8589934595, 12884901891, 12884901892, 4294967299, 4, 8589934596,
            8589934597, 12884901893, 4294967300, 4294967301, 4294967302, 4294967303, 5,
            8589934598, 12884901894, 12884901895, 12884901896, 4294967304, 4294967305,
            6, 7, 8589934599, 12884901897, 4294967306, 8, 8589934600, 8589934601,
            8589934602, 8589934603, 12884901898, 4294967307,
        ]),
        (584, 329, 1799, [
            4294967297, 1, 2, 8589934593, 12884901889, 12884901890, 4294967298, 3,
            8589934594, 8589934595, 12884901891, 12884901892, 4294967299, 4, 8589934596,
            8589934597, 12884901893, 4294967300, 4294967301, 4294967302, 4294967303, 5,
            8589934598, 12884901894, 12884901895, 12884901896, 4294967304, 4294967305,
            6, 7, 8589934599, 12884901897, 4294967306, 8, 8589934600, 8589934601,
            8589934602, 8589934603, 12884901898, 4294967307, 9, 10, 11, 8589934604,
            8589934605, 12884901899, 12884901900, 4294967308, 4294967309, 12, 13, 14,
            8589934606, 8589934607, 12884901901, 4294967310, 4294967311, 15, 16,
            8589934608, 8589934609, 12884901902, 4294967312, 17, 8589934610,
            12884901903, 12884901904, 12884901905, 4294967313, 4294967314, 18, 19,
            8589934611, 12884901906, 4294967315, 20, 21, 8589934612, 12884901907,
            12884901908, 12884901909, 4294967316, 4294967317, 22,
        ]),
        (584, 489, 2679, [
            4294967297, 1, 2, 8589934593, 12884901889, 12884901890, 4294967298, 3,
            8589934594, 8589934595, 12884901891, 12884901892, 4294967299, 4, 8589934596,
            8589934597, 12884901893, 4294967300, 4294967301, 4294967302, 4294967303, 5,
            8589934598, 12884901894, 12884901895, 12884901896, 4294967304, 4294967305,
            6, 7, 8589934599, 12884901897, 4294967306, 8, 8589934600, 8589934601,
            8589934602, 8589934603, 12884901898, 4294967307, 9, 10, 11, 8589934604,
            8589934605, 12884901899, 12884901900, 4294967308, 4294967309, 12, 13, 14,
            8589934606, 8589934607, 12884901901, 4294967310, 4294967311, 15, 16,
            8589934608, 8589934609, 12884901902, 4294967312, 17, 8589934610,
            12884901903, 12884901904, 12884901905, 4294967313, 4294967314, 18, 19,
            8589934611, 12884901906, 4294967315, 20, 21, 8589934612, 12884901907,
            12884901908, 12884901909, 4294967316, 4294967317, 22, 8589934613,
            12884901910, 4294967318, 4294967319, 23, 8589934614, 8589934615,
            12884901911, 4294967320, 4294967321, 24, 25, 26, 8589934616, 8589934617,
            8589934618, 8589934619, 12884901912, 4294967322, 4294967323, 27, 8589934620,
            12884901913, 4294967324, 4294967325, 28, 8589934621, 8589934622, 8589934623,
            12884901914, 4294967326, 29, 30, 31, 8589934624, 8589934625, 12884901915,
            4294967327, 32, 33,
        ]),
    ],
    "Q/2048/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
    "redo-premature-dep-clear-wpq4/asap": [
        (292, 0, 0, [4294967297]),
        (292, 2, 1, [3, 2]),
        (292, 1, 2, [4]),
    ],
    "redo-premature-dep-clear-wpq4/asap_redo": [
        (292, 1, 1, [1]),
        (292, 1, 1, [1]),
        (292, 2, 2, [1, 2]),
    ],
    "redo-premature-dep-clear-wpq4/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
    "service-svc-midburst-wpq4/asap": [
        (292, 0, 0, [2]),
        (292, 1, 1, [4, 3]),
        (292, 5, 1, [7, 4294967300, 6, 4294967299, 5, 4294967298]),
    ],
    "service-svc-midburst-wpq4/asap_redo": [
        (292, 2, 2, [1, 4294967297]),
        (292, 3, 3, [1, 4294967297, 2]),
        (292, 6, 6, [1, 4294967297, 2, 3, 4, 4294967298]),
    ],
    "service-svc-midburst-wpq4/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
    "undo-cross-thread-rmw-wpq4/asap": [
        (292, 1, 1, [4294967297]),
        (292, 1, 0, [2]),
        (292, 0, 0, [4294967298]),
    ],
    "undo-cross-thread-rmw-wpq4/asap_redo": [
        (292, 1, 1, [1]),
        (292, 2, 3, [1, 4294967297]),
        (292, 2, 3, [1, 4294967297]),
    ],
    "undo-cross-thread-rmw-wpq4/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
    "undo-incomplete-line-chain-wpq1/asap": [
        (146, 1, 0, [1]),
        (146, 1, 2, [1]),
        (146, 1, 3, [1]),
    ],
    "undo-incomplete-line-chain-wpq1/asap_redo": [
        (146, 0, 0, []),
        (146, 0, 0, []),
        (146, 0, 0, []),
    ],
    "undo-incomplete-line-chain-wpq1/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
    "undo-miss-in-flight-mshr1/asap": [
        (438, 1, 2, [1]),
        (438, 1, 1, [4294967297]),
        (438, 0, 0, [2]),
    ],
    "undo-miss-in-flight-mshr1/asap_redo": [
        (438, 0, 0, []),
        (438, 1, 3, [1]),
        (438, 3, 8, [1, 4294967297, 8589934593]),
    ],
    "undo-miss-in-flight-mshr1/hwundo": [
        (0, 0, 0, []),
        (0, 0, 0, []),
        (0, 0, 0, []),
    ],
}


def _digest(image) -> str:
    words = sorted((addr, value) for addr, value in image.items() if value)
    return hashlib.sha256(repr(words).encode()).hexdigest()


def _builders():
    for path in CORPUS:
        case, _meta = load_corpus_entry(path)
        name = os.path.splitext(os.path.basename(path))[0]
        for scheme in SCHEMES:
            variant = dataclasses.replace(case, scheme=scheme)
            yield f"{name}/{scheme}", (lambda v=variant: build_case_machine(v))
    for workload, size in (("HM", 64), ("Q", 2048)):
        params = default_params(True, value_bytes=size)
        for scheme in SCHEMES:
            yield f"{workload}/{size}/{scheme}", (
                lambda w=workload, s=scheme, p=params: build_machine(w, s, params=p)
            )


BUILDERS = dict(_builders())


def crash_points(build):
    """The image digests and the recovery report at each fraction."""
    total = build().run().cycles
    machine = build()
    digests, reports = [], []
    for num, den in FRACTIONS:
        state = crash_machine(machine, at_cycle=total * num // den)
        image, report = recover(state)
        digests.append((_digest(state.pm_image), _digest(image)))
        reports.append((
            report.records_scanned,
            report.records_matched,
            report.restored_lines,
            report.undone_rids,
        ))
    return digests, reports


@pytest.mark.parametrize("case", sorted(BUILDERS))
def test_crash_and_recovered_images_match_golden(case):
    digests, reports = crash_points(BUILDERS[case])
    assert digests == GOLDEN[case]
    assert reports == REPORTS[case]
