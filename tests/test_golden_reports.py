"""Byte-identity of small CLI reports.

Each digest is the sha256 of a known-good text report; any change to a
value, a row order or the formatting shows up here.
"""

import hashlib

import pytest

from harmgraphs.cli import EXIT_CHECK_FAILED, EXIT_OK, main

GOLDEN = [
    ("check-harmonic --family young-zz:e=1,t=5/4 --levels 6", EXIT_OK,
     "10141fd45ef360c65ca059c42cd4c97a0727e034ba1bb58fdc3c57db62020037"),
    ("check-harmonic --family jack:e=1,t=5/4,theta=1/2 --levels 5", EXIT_OK,
     "50f8de380a023b0ccdccec1f5c6f683e119e87f8de61139cd298d82b4b89593e"),
    ("check-harmonic --family kingman:t=1,alpha=1/2 --levels 6", EXIT_OK,
     "75fcab8a62396171f79a1c1b0fa73628abe3311579721072cbf28311a4ef4569"),
    ("check-harmonic --family schur:t=2 --levels 7", EXIT_OK,
     "1f34eed90469e4046e3e6b929270eacc1c3140b76108606fdb111884b68843e2"),
    # inadmissible parameter: the positivity stage flags negative values
    ("check-harmonic --family schur:t=-1/2 --levels 4", EXIT_CHECK_FAILED,
     "119f2c92ce5db7f2f44f56a24d6c079f68f810618c3f12ad889513b31373c0c9"),
    ("check-harmonic --family trunc-young:lambda=2+1 --levels 6", EXIT_OK,
     "ef11353199df0653820cde11a5ebb52812cd1ac8d94d9d499a5da26beec91ffd"),
    ("check-harmonic --family gamma:lambda=2+1,cap=5 --levels 5", EXIT_OK,
     "072e9203e8af2ee7dddea439760af63fd53ae90b3e26bb2dbb142c6f0e52f47f"),
    # the gamma face at degree 10, and at depth 3
    ("check-harmonic --family gamma:lambda=2+1,cap=10 --levels 10", EXIT_OK,
     "c9de96e8240b0399bb5a5204f4abd1fd87aa2920a2e82bdbf4d1a899c150589a"),
    ("check-harmonic --family gamma:lambda=3+2+2,cap=9 --levels 9", EXIT_OK,
     "c336cb197fa94eb6482d798c3ac75f733c7fba6031665db7df7c3ad0bc1a0b79"),
    ("check-harmonic --family gamma:lambda=4+3+3+1,cap=12 --levels 12", EXIT_OK,
     "848870f7106f9363222ae6a92c17cc071d12f7e7da0362fea96cfa14b53e6511"),
    ("check-harmonic --family trunc-kingman:lambda=2+1 --levels 6", EXIT_OK,
     "fa8da0884152b759a69735e0360ab2f7982c58ec661abdff6befb5369c8ade65"),
    ("check-harmonic --family trunc-schur:lambda=3+1 --levels 6", EXIT_OK,
     "834c354a1c9fcfc3d91a10389e5688eac434af6f1f6be264b6c8d2dae23e2ec9"),
    ("measure --family young-zz:e=1,t=5/4 --n 7", EXIT_OK,
     "9a9e17b0363402dd6fd62a992e0c741eba6b62dbfafe52516868c04a12d69973"),
    # a truncated family's measure is its face's level weights, one row per vertex within the
    # width (the gamma face's weights are the level measure itself, zeros past the depth kept)
    ("measure --family trunc-young:lambda=2+1 --n 8", EXIT_OK,
     "af0c68014afe6ac5f1ab19857e7355d0105aac44930a97059638b621c999614e"),
    ("measure --family trunc-kingman:lambda=2+1+1 --n 8", EXIT_OK,
     "394a789de5898ade9b630477ac8e83c838da913937018f867864d61b1f543c05"),
    ("measure --family trunc-schur:lambda=3+1 --n 10", EXIT_OK,
     "d5bb8b9c678f84bf5ba9745e326f5879f0946e713fec632b20fbe34821b86a17"),
    ("measure --family gamma:lambda=2+1,cap=8 --n 8", EXIT_OK,
     "031b09df9497c78785cdd761610ceacec71a0844fbbdd57570b27ab677aaeaf3"),
    ("dims --kind jack(1/2) --level 6", EXIT_OK,
     "eb8f0087342c8eb5536499f6a0a09533c05812766d3a75143a4eda85628b6535"),
    ("dims --kind kingman --level 7 --max-length 3", EXIT_OK,
     "5d9cfff3af4e4a1ab76070abef40174b5ed60c169aa304eb6564730246ad9d09"),
    ("verify dimensions", EXIT_OK,
     "6f3ca4b936e97affeea66730100fa537921274f48583ea518642903c69092d35"),
    ("verify dimension-ratio", EXIT_OK,
     "a819d79410b621496e8b6839eb49bfbab6b964fadd8db2e0a5c354aecf0b4877"),
    ("verify lattice --levels 6", EXIT_OK,
     "8f15f250cbb9ff395609f441d63485af052c6a6e3b95cafc6b6a34a25886df0e"),
    # shifted Schur functions expanded over h* products, degrees 0 to 5
    ("verify selberg --graph gamma --max-size 5", EXIT_OK,
     "c059fc702a2b664ec21449b5d946eb2ffe285f6857e2b323bc0e2e793e6bc96a"),
    # Jack weights at theta = 0 against the Young and Kingman graphs
    ("verify degeneration --levels 6", EXIT_OK,
     "9ec9ee099fb1ba7e6dff435b8db599221b937610e41f8e83925e5b1bb314b376"),
    # Pieri-type relations for s, s*, m*, P* and the h/e generators
    ("verify pieri --seed 7", EXIT_OK,
     "9525ec0a8aadb671d56bf4f5ea5ca4195f065634c37c399c41a0ee2f7bd7cba7"),
    # Young and Kingman kernels: harmonicity and unit mass at random points
    # seven coordinates, so the random points are denser in collisions
    ("verify pieri --seed 7 --max-size 7 --points 2", EXIT_OK,
     "190880bef743f30cd5c62aeb257a417633293e6a97b18d89d1f5f6e3434a5204"),
    ("verify kernels --seed 7", EXIT_OK,
     "d0c7089e39603d0df392eaeb51000c71d7bf0741bc56e63f386f08871cd5382f"),
    # the other seeds of the identity-suites pools
    ("verify pieri --seed 11", EXIT_OK,
     "952d5beffabe908432ea5dff870f6676e92ee7bfe0b4e11d19532a730d519cdf"),
    ("verify pieri --seed 29", EXIT_OK,
     "36c5f0be8c9ab556547e2f1d01795fa82197aadbbde3abbf8cb6f2dddbefef2c"),
    ("verify pieri --seed 31", EXIT_OK,
     "ba59c476b724ebc47196042304975498aeda145b95ca03132be3a5dd146791e1"),
    ("verify kernels --seed 11", EXIT_OK,
     "f071fd1a79af0c73419c9f043a9a823eb9b710d9db9db5adea358b47a150c865"),
    ("verify kernels --seed 19", EXIT_OK,
     "eda6095664aebbf5f9fc178db9d86a533c0254ffd5613594127d2346d92e6f30"),
    ("verify kernels --seed 23", EXIT_OK,
     "7077663705be45ab9566cb0b533cf0d7333781a1ce1828ce3837b95546b21a29"),
    ("verify interpolation", EXIT_OK,
     "6652505517467b52dd240b62e144f3bc77127737fa5cbcfb550e25074924b513"),
    ("verify lattice --levels 9", EXIT_OK,
     "6e2bad7be0efecc1e44d6b656695c4aec294b0fcbffa7080bd4dd5df8f9073ea"),
    # the closed-form-sweep lattice step, and the generator-engine Selberg step
    ("verify lattice --levels 12", EXIT_OK,
     "0dad420173ea5c238ae1f8910464893d1fbff69fefd9281a8caf54463ae78e21"),
    ("verify selberg --graph gamma --max-size 6", EXIT_OK,
     "0cc492431483188ed81efc0ab225ab6330aa61b5f46428a9812b9e0f1630231a"),
    # depth-2 mu beyond the benchmark's size 6
    ("verify selberg --graph gamma --max-size 8", EXIT_OK,
     "5be3676a6031e3f780a64162e4950ff7f87388a968fc93c160ea1987563e7ad5"),
    # the four faces in order: young, kingman, schur, gamma
    ("verify selberg --graph all --max-size 4", EXIT_OK,
     "963c9de7a6d4b3fdee82f8e49695047d1ad255bef5164e5ad9efb38eaad28611"),
    ("verify selberg --graph all --max-size 6", EXIT_OK,
     "f105b6f7c22bb1beb6e3e8152928ae3c87213e7f485a6779cbd248d5c809a5ce"),
    # single identities at the face-dimension cap of 5 and at depth 2
    ("integral-verify --graph young --lambda 5+4+3+2+1 --mu 3+2+1", EXIT_OK,
     "9096c06d3011a234c29cc3c5d6f993a9f78b2c157148b1fe3009fe9dae6203c2"),
    ("integral-verify --graph schur --lambda 5+4+3+2+1", EXIT_OK,
     "419f8ec9385464c9acb34109eba5f6fe00edc922f624ac051cfb5796e6b283a7"),
    ("integral-verify --graph kingman --lambda 3+2+2+1+1 --mu 2+2+1", EXIT_OK,
     "b067e98e9ee60351db9903beca7302d2710ab7a8a552b85af4ee1b6c6af2e46f"),
    ("integral-verify --graph gamma --lambda 3+2 --mu 2+2", EXIT_OK,
     "6cbe39a4d54c9d6624b65502ad0e053880da1e7255d9f8112509bd1ebee0b4d9"),
    # mu = () past the face dimension 5 that bounds only the kingman face
    ("integral-verify --graph schur --lambda 6+5+4+3+2+1", EXIT_OK,
     "55e16a402d09033531e6d4f5ff28aaa43d1c2c65c94625e33a1d9b7487b3a34f"),
    ("integral-verify --graph gamma --lambda 6+6+6+6+6+6", EXIT_OK,
     "44e224d6809ab4901f997e9fa47485e36840144f99287442f20388005b878d9e"),
    # the kingman face past that dimension: one rising-power monomial table of lambda
    ("integral-verify --graph kingman --lambda 1+1+1+1+1+1 --mu 2+1", EXIT_OK,
     "b410c8db1a2477fb7dda3908385ca0fcbf767c3f916b4a02e9b6e4af5cce96b6"),
    ("integral-verify --graph kingman --lambda 4+3+2+1+1+1+1 --mu 3+1", EXIT_OK,
     "28a0e95a99cc7af867993b4c64d0bb0cc08077ac41a478e802db254631202c9e"),
    # the pointwise ratio at n = 50 is still outside its 0.05 tolerance
    ("converge --family trunc-young:lambda=2+1 --n 50,100", EXIT_CHECK_FAILED,
     "9b3f940e1fcdbe418d21444889334a324db65b32dbc5fffe135a6e5962c6ca72"),
    # level weights at n in the thousands on the young and kingman faces
    ("converge --family trunc-young:lambda=3+2 --n 500,1000,2000", EXIT_OK,
     "2482a4d0ac2a40af751637f46b624a8e03cb00de8cf1548c849642f2ea662bcd"),
    ("converge --family trunc-kingman:lambda=3+2 --n 500,1000,2000", EXIT_OK,
     "eaafdc254fed2c407dc06c71104f4326ec43ba382bb6b5cd259a71463735c756"),
    # faces wider than 2 carry no binned distance, so the monotone row fails
    ("converge --family trunc-young:lambda=3+2+1 --n 24,48", EXIT_CHECK_FAILED,
     "e4820891846667055ba520750d99c00bea84fbf1ced06fc766f46f9d8e9b0749"),
    ("converge --family trunc-kingman:lambda=2+1+1 --n 30,60,120", EXIT_CHECK_FAILED,
     "c867907948a53432162d170cc74b6c3522570786a280b485eec245c8f6df8b83"),
    # a wide kingman face: each level weight one rising-power monomial table of lambda
    ("measure --family trunc-kingman:lambda=1+1+1+1+1+1+1 --n 10", EXIT_OK,
     "f36062359a8dd8f1817132d8500b535eaa524663161a23c5b53327bdafa29aad"),
    ("converge --family trunc-kingman:lambda=2+1+1+1+1+1 --n 12,24", EXIT_CHECK_FAILED,
     "e415b9f6d4462097e68a909e19a4df1b2025a1d150190ac0b9c3943504af310f"),
    # the gamma face embeds each vertex by its Frobenius coordinates; no
    # binned distance there, so the monotone row fails
    ("converge --family gamma:lambda=2+1,cap=8 --n 4,6,8", EXIT_CHECK_FAILED,
     "8747741d1a96d96d3a87f23682876bd23198fdf4325fc15b6d57c6af159a0422"),
    # lambda = (1): the face form has degree -1, and the hook measure is exactly uniform
    ("converge --family gamma:lambda=1,cap=6 --n 3,5", EXIT_CHECK_FAILED,
     "7fffb88ae500646adb2d06dd5c98efd014e9d831c24b870da2dc2b069d17e15a"),
    # the schur face keeps the dim_closed_form * value route
    ("converge --family trunc-schur:lambda=3+1 --n 20,40", EXIT_CHECK_FAILED,
     "166e4dff1272441de93a32c81a9ada560d2cdf1e1df149eced24dff49f3ce7ce"),
    # a width-3 strict face
    ("converge --family trunc-schur:lambda=4+2+1 --n 12,24", EXIT_CHECK_FAILED,
     "a2d7af4baa88aff949cc237332872a1abaa487a3b836c5a07b6eaa0bb7d98f92"),
    # P* values read from one two-row table per point, family and functional
    ("check-harmonic --family trunc-schur:lambda=7+4+2 --levels 16", EXIT_OK,
     "91e5c744d2529913a099e3b478226d8a64145b398c9b277409eeb6e65d7c685b"),
    ("verify staircase --k-max 4 --max-size 7", EXIT_OK,
     "78980761bc250adf39954b644de5e4057036ffad2261651331d1a0c969dd8c8b"),
    ("verify selberg --graph schur --max-size 6", EXIT_OK,
     "190beb090655377ac8efa250d5594f532c2d2979a5d2e857489372bc11feebb3"),
    # length-4 P* Pfaffians: at an integer point, at a rational point, and
    # over the schur face's vertices (exit 1 only on the monotone row)
    ("check-harmonic --family trunc-schur:lambda=5+3+2+1 --levels 12", EXIT_OK,
     "b4b067fa23a5b230b836a4cd10cd64edc82b37e06ab4e8101da970157867aaf2"),
    ("verify pieri --seed 11 --max-size 9 --points 1", EXIT_OK,
     "12946cf7261a861edf2a0a23ba2d192aa3d1f44dcef5020b94788f05b805eb70"),
    ("converge --family trunc-schur:lambda=3+1 --n 200,400", EXIT_CHECK_FAILED,
     "557c97cb753e36f48461b1a5ae117444f5d4ecfe02dbd9f7461f7ac90857aabc"),
    # closed forms at negative e, non-integer theta and t = 0
    ("check-harmonic --family young-zz:e=-3/2,t=7/3 --levels 12", EXIT_OK,
     "a09ac69355ce25a9e30d3a23995557e6c2612a61e943498a6a574c76a3b71f90"),
    ("check-harmonic --family jack:e=1/2,t=3,theta=3/2 --levels 10", EXIT_OK,
     "70a3f63ceaf44589bd101454bf2f414a77c029f2316a44c82bc7606da403bb2f"),
    ("check-harmonic --family kingman:t=0,alpha=1/2 --levels 10", EXIT_OK,
     "783362e73e319f620e70fbf222df3c787f873467f38baa7063c017d1d8846b9e"),
    ("check-harmonic --family schur:t=7/3 --levels 14", EXIT_OK,
     "261ea65764de4546fcbc444bf8a73a84286b8beea563919a34cca29662089161"),
    ("measure --family kingman:t=0,alpha=1/2 --n 12", EXIT_OK,
     "780682396b8b0e61f10f5c0794b4f3080be90d6aae67bce51d647725c2e53823"),
    ("dims --kind jack(3/2) --level 12", EXIT_OK,
     "26212a5fff1f80bfc4d9e89fd042b2deb617499c1ffa5758c308306ce6834c17"),
    # the strict sweep, a length-capped jack sweep, a strict-family measure
    # and an integer theta
    ("dims --kind schur --level 14", EXIT_OK,
     "ca6744db36d397b615e87cae45797bbc761a2602d1deb929f82df745652512ed"),
    ("dims --kind jack(3) --level 9 --max-length 2", EXIT_OK,
     "6dc89ef36e7aa71b896bb57d55f0896e6e381c245a225428c0c643a56c620a78"),
    ("measure --family schur:t=1/2 --n 10", EXIT_OK,
     "3081a174ec99c69a7597c4264fc17126632c0b8995a67e57abf8b604ce3afa9f"),
    ("check-harmonic --family jack:e=1,t=1,theta=2 --levels 8", EXIT_OK,
     "5447671fa627ede642f81af4490035d4fc605bec3e7b2edb2e76b347cc4a181a"),
    # the identity suites outside the benchmark's pools: three kernel points
    # at ten levels, two seven-coordinate Pieri points, the interpolation and
    # dimension-ratio suites at other sizes
    ("verify kernels --seed 3 --levels 10 --points 3", EXIT_OK,
     "f5ac80a74578888faaa42b29a58497372456efe38eb3ffe0b45c1f5d73a3410e"),
    ("verify pieri --seed 5 --max-size 7 --points 2", EXIT_OK,
     "294086a7de7b99c8d56631cb2ed5717e098592080947d2e1fdace44bbc1cf6f8"),
    ("verify interpolation --max-size 6", EXIT_OK,
     "4bbc1b846093e38d7849ed32259fd43df7130cd038072e80c35bfaf3e66c42ab"),
    ("verify dimension-ratio --mu-max 4 --lam-max 7", EXIT_OK,
     "8477a476143172a4daff88c73375857f7948850abf0a99de86b9c3f14efe7282"),
    # Gauss's 2F1(a, b; c; 1) summed in mpmath, the one float path left
    ("verify gauss", EXIT_OK,
     "98babc224a7a8544535bb5402ffe3ede0aed19a64b5f87251025f44bb55e0574"),
    ("verify gauss --precision 64 --tol 1e-15", EXIT_OK,
     "4b14e928ae47bff6b22e9984fd4d082794562e33319245e68f93c63df50f9b25"),
    # check-harmonic at its default level bound
    ("check-harmonic --family young-zz:e=3,t=2 --levels 8", EXIT_OK,
     "b32877ae7c299ea3942e54e98cc50866a3a8cd66f33a680ebbd2b4160eedc6e2"),
    # every suite at its declared defaults
    ("verify pieri", EXIT_OK,
     "523f9f3059815e853f5eaf9b6666101f98e1920165c5d162b22a59373f408447"),
    ("verify selberg", EXIT_OK,
     "8f3f1c284a60ab59edc325e9f0fb3eb1e2c2f021fddedadf198581710e7ca3a3"),
    ("verify staircase", EXIT_OK,
     "b163c7a4d08aa6e334f228ead7a7c15ab6849dd92e5b6cce8406cb3aa6ef8c7a"),
    ("verify pfaffian", EXIT_OK,
     "48454b75873c6c638fc012079ec12fa3471a6e5723c78f5786fef8f5d2ebb35e"),
    ("verify kernels", EXIT_OK,
     "c905a5087a3aa2186df54e70d4470dc03aae731a43645818692d50420e2b75e9"),
    ("verify degeneration", EXIT_OK,
     "6a4c3031eddc51b1f90ff92e24a2954783badb2776ac389ca773dbceadab3a58"),
    ("verify lattice", EXIT_OK,
     "733373099ed3a281464a8689b67e81dfbad6670bd3612b8ebc34a1c14e585280"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_digest(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest